//! Golden scenarios: every registry entry builds to a pinned world.
//!
//! The registry became spec-backed in PR 6; until then its scenarios were
//! Rust builder code. The digests below were taken while a verbatim copy
//! of those builders still proved every spec-built scenario structurally
//! equal to its hand-coded ancestor at every scale, so they carry that
//! proof forward. Because a run is a pure function of `(scenario, seed)`
//! (see `tests/determinism.rs`), a scenario that builds to its pinned
//! world produces the same `results/scenario-*.json` as it always has.

use lockss::crypto::sha256::{sha256, to_hex};
use lockss::experiments::{Scale, ScenarioRegistry};

const SCALES: [Scale; 3] = [Scale::Quick, Scale::Default, Scale::Paper];

/// `(name, [quick, default, paper])`: the SHA-256 of `format!("{:?}",
/// entry.build(scale))` for every registry entry, in registration order.
/// The `Debug` form names every field of the world config, the attack
/// tree and the run length (durations render exactly: every one a
/// scenario sets is a whole number of seconds).
const PINNED: [(&str, [&str; 3]); 21] = [
    (
        "baseline",
        [
            "1376289737a7822bb09eac8f59666ee38b9a42bd3d5220892ec9209e1586774f",
            "7fc045c724a07a4f72b6b475804a4088dc039457d0ca6ccc9e5721ff9a8c9b5a",
            "d8d6f0ba35bd10b80f19f0f032869a7f2284f0045230df2fab0c12804346a820",
        ],
    ),
    (
        "baseline-large",
        [
            "a13dc34ba212bb1359aa5914b70bc512c9efe75c2f63c262403a3bb61f05d0d7",
            "d8d6f0ba35bd10b80f19f0f032869a7f2284f0045230df2fab0c12804346a820",
            "db96f1423c58e9eeb96d8b86fe0ba9ceee120f757e1e5ed0b615d868ff9dd26b",
        ],
    ),
    (
        "pipe-stoppage",
        [
            "75ad98e154fcc7c164dc1a6a505e83fb477e530cc7acdc07ecc61c50c049d8d8",
            "0ede5dcc6592dfbf83f6ec893d7aa24230968c5b355b84fb725ca7e22cf2a3b0",
            "61ff29f888205f5c8bb5d83550d65e49ef753d7fb9386855d87ce558df4545a7",
        ],
    ),
    (
        "pipe-stoppage-partial",
        [
            "2b8d6029c947e4a5ea988313d5dec191583c9a7d18bcacc4478c5e8ca46f619f",
            "b6c3be4ae86290e7636d70f3fccbc532d2e0cf1c28a38eaa07b7f1f4c0bcbae1",
            "4611f8341a6f097f6a25f3515061b4e4191142bbec9761787849270c9099aa0c",
        ],
    ),
    (
        "admission-flood",
        [
            "f81ce6b99f5b73a6835e5753931923f3488fe052b9f6f1e1f027fe17b3f6d0ac",
            "9d36b9eebbc598e98f1a70944cea897db942359aca4bb7c66f97803d1c1599c8",
            "d86da4c99174419f54af285c2f107d032fed2bb5cf53e69325ec1992f5513a00",
        ],
    ),
    (
        "admission-flood-partial",
        [
            "fdc75dba1e213324c6bf7d766732b1c368902d95f715da01823ac7ba2a66e7a8",
            "4de3f02f92a49faf3197001673d420c43631598839b67296c577adc1aedda150",
            "278fb330fec1260fc1c77e9d7f4260cfa74e633bbd5633b33b868cd240913cdc",
        ],
    ),
    (
        "brute-force-intro",
        [
            "824784c9d6232587a1cfaedc8a6bfbbf5993eb4b0cdb61dafcadb7e96574ca9b",
            "38eacbcef9f2e1de1040edf9c69fa3b6cebad070007ce7724276ee8d511086c5",
            "65cf373503a279b3db77401a85066809ef4e5e788ec3d64133cf4630a83b91a6",
        ],
    ),
    (
        "brute-force-remaining",
        [
            "ea7509c8cd0a36960b7d4d89fdc9d54181d7b24568fff6ce6b31358884d0e7d8",
            "d71e224d1253714b58c559c365f24ab4dd462d72bd6823aa1c5b1657a3fc794a",
            "42e8f873147f5f548aab99ee06c9e8cea58072eefe4015eadc5afe1385bf7203",
        ],
    ),
    (
        "brute-force-none",
        [
            "90a1121d96fd3e1b21378ff37c29fba240a4e820ade4b267ea806be39bd0b872",
            "f10cbdd280b750081e7d58f48ae76be8f53682a88863e05a503edf426f5a9c05",
            "cc27c6540c5b62b363907a27d22b2207191d4e838dc2891b30b7efecb1819543",
        ],
    ),
    (
        "vote-flood",
        [
            "21b495a5c7e33330682c7d7307ddb0299cba09a80282163d49cbc7a8148fe41a",
            "64f32c292c69ca2154390f6d5b01d41f6d6b3307693142979a9a0d0b1af79115",
            "378eed2e0939b8af013fc0244e7c23491c59a6110b35f6ca901557b5e83ba73a",
        ],
    ),
    (
        "churn-storm",
        [
            "17256397ec22a13796c49e2117d981ba7a2a86a40e4928ca3b225d629337ddb3",
            "f2f179a12eeeace8a20ae9e3627e2d048ef2d7f03b6e5a2220929b62d9cd3baa",
            "192e6b99ef81ad8ad220fa10d020a271d094b16f17aa68f520a45da291c552f3",
        ],
    ),
    (
        "sybil-ramp",
        [
            "1442ac93e378fdb30bf32d7c39d9262b4831530777f4b1b40caaaa6c29933eb0",
            "36f6450cb589e7680d6e9e186cb3653ff394aefa9094d6daed804d14f4d12f4d",
            "11ff31a3ffe7b8098ae2ba0ff8e4aaf3cc41a9b5591efdb06b8425415eb0666e",
        ],
    ),
    (
        "mobile-takeover-light",
        [
            "63a15be6090031449180bf1b228620e60ec1d91840b070a280ede34d2772679b",
            "65ca2b1fe4a94dad8246b3c180bea922b963d569f156cf9ad28f0b564f4bad97",
            "4f653e6207744258bceacec10d8b363f8e895163e4a1564be0db2cee3ec5abf7",
        ],
    ),
    (
        "mobile-takeover-heavy",
        [
            "75afccb15504e20c6c3736767c0429bb505acb8460386933da4d7f70cea1a47f",
            "71596c8f3427197e6700fc0004faa4c72bf0074af569241adc48a7856a896162",
            "03c94be45b9465f59c29f2b8b09554d2f65c5f24fa73f89c48fb0f5c110301cf",
        ],
    ),
    (
        "stoppage-then-flood",
        [
            "3ac2403f0262dc168b3541d780f5063c396f43aef42530cd164d174f57fa7f51",
            "7339b393e63b73eded6426d4fb9ecc8c40d87a7d8c75483efd895c95875a184c",
            "a8d0c53b0035ff8f927930ce5f3b14e4b48396caa7fa1e40853544695c669d19",
        ],
    ),
    (
        "storm-over-ramp",
        [
            "117a3bcfef30f6cb9ab01264893bbb6565996c8b47e665d972aef18298710418",
            "a96a43815cc7619edd8c102c88c076e3494399d1ce98f58b986dba6a502cec45",
            "f7e0aa2a9906370487a094a6cd22a4655a76dbceca50329a1d72d3392af2900f",
        ],
    ),
    (
        "stoppage-escalation",
        [
            "ab4b690c6a36dfa0f1a9374f86388ec1a62d05eeaf751c594beb42eb343b1dff",
            "fee668da9d586dc2801c0ac9ff33ef7c7c6390aa84394564c7209388a8bf69a4",
            "0e57709ceaacc387e54a0d561747507383450dae9b5bcc266db6c35191487891",
        ],
    ),
    (
        "mobile-recovery-race",
        [
            "76eee6b17342fb35db803b5b9dadbaf35670390d65e75b838b9eea099b2fe4aa",
            "f8c45049bd4fc35197dd86838216d3abba1e3c47b21c33f8a99b7be8cf99d028",
            "bccc0442c19f568db751f47adc185498a31c0ed853520b9abbb97e745f35ec99",
        ],
    ),
    (
        "scale-10k-baseline",
        [
            "da988e9ec2b0e47da90da4924fba1001cb3596b9dd9233cb961d0779721c1708",
            "9511e163cfa83fdae16590aa36bf07259fd8000af7f582973b92edc3cdf53059",
            "9511e163cfa83fdae16590aa36bf07259fd8000af7f582973b92edc3cdf53059",
        ],
    ),
    (
        "scale-10k-churn-storm",
        [
            "22fe8132d288eaf6ff89d83b595a4ee56e1eb706d898a206de6c3036b7e70a67",
            "5b7736ae1f029ee8811539745e2c18858cc8e50c124265c85939e4c50eac9a87",
            "5b7736ae1f029ee8811539745e2c18858cc8e50c124265c85939e4c50eac9a87",
        ],
    ),
    (
        "scale-50k-attrition",
        [
            "1b70f737f3ca869311942d83c984938bbe17be49b326657c8815131cc5c1d91d",
            "780f4ddf4af2efc2f373b8c9b6508ebd02b25cd7a99f2c1f1a36ee24aae20bf9",
            "780f4ddf4af2efc2f373b8c9b6508ebd02b25cd7a99f2c1f1a36ee24aae20bf9",
        ],
    ),
];

/// Every registry scenario builds to exactly the pinned world at every
/// scale. A change to a scenario file, to `ScenarioSpec::build`, or to a
/// default it leaves alone (`Scenario::baseline`, `WorldConfig`,
/// `CostModel`) moves a digest; a deliberate one re-pins it here.
#[test]
fn every_registry_scenario_matches_its_pinned_digest() {
    let registry = ScenarioRegistry::standard();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        registry.names(),
        pinned,
        "registry entries or their order moved"
    );
    let mut drift = Vec::new();
    for (name, digests) in PINNED {
        for (scale, want) in SCALES.into_iter().zip(digests) {
            let built = registry.build(name, scale).expect("registered");
            let got = to_hex(&sha256(format!("{built:?}").as_bytes()));
            if got != want {
                drift.push(format!("{name} at {scale:?}: {got}"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "built scenarios moved:\n{}",
        drift.join("\n")
    );
}
