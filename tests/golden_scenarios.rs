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
            "39c194482c4c206da6935289faf21ca654717af4f6ea967af2d0ee44467e95a9",
            "26a60b69f07b21567181b2750f0eacf2d7c140fb9a55ce8d8242ea9070b7e51d",
            "ef3e0462e4a4b2d5ab8b8295cb033552898768d1065f14766fa2051036a4dbcc",
        ],
    ),
    (
        "baseline-large",
        [
            "dcde2b4ec3a898e49269be4e09b97eac5bf2b6b6feffc36e4c63520c84b6a036",
            "ef3e0462e4a4b2d5ab8b8295cb033552898768d1065f14766fa2051036a4dbcc",
            "1f436a9b81ded18a478a2c88f9a43f0e6a00761f799c375276d5c38c5c8bd980",
        ],
    ),
    (
        "pipe-stoppage",
        [
            "0fc05baab069c9a330878f5a9887f08dcbe059e2bcb048fbd5bde11e3f9484d0",
            "5a2287f0fdace62f7ffd8cd08c63f0b825974ca816310cdf6b0d92a48a4a294c",
            "6b5607905cd9b21fdd5e561e9f6a33b681a1c914db74900b928c8b08c6c57d0f",
        ],
    ),
    (
        "pipe-stoppage-partial",
        [
            "72afc2483caee04094f8ffaee669305815e70e107d3fa9d6e95681b596e3de09",
            "985cd1f1a6384578db62cffe2038b0f67a2b6f80fbe5b3348ae330b3766b3e32",
            "4da7cbec5c3cbe4c9a376b866fff448539321438da0a7f0f437f1971c13d8956",
        ],
    ),
    (
        "admission-flood",
        [
            "46fb39fc60508b05d2e52543da824009b1c60c8db307b3090baf61290a87bf92",
            "75723484fc6cefd0050084ef22f9886f1234e1b73a45e43b17408db91f2d246d",
            "fd454cfb05a9e66dd191d5ad8c8a444832aaaa30a4ff11bd9b71bfcd05a7cdc1",
        ],
    ),
    (
        "admission-flood-partial",
        [
            "cb60b27d9585c56c4cd9cbf86e75a9a25b2ac8dafe8eeafffcc8c6b66e3d9c27",
            "5319ca2fa9ddb5d69cd9bb8188fdfd74beff38c028c48a823e763ac598bc14f9",
            "bedc90a2473e7af06386005001ce03fce34737c6b9d18a98603d29bcb79e3409",
        ],
    ),
    (
        "brute-force-intro",
        [
            "d08da460d3c47f2b2450539a469588f6059c672c5989d3f1ecb31e599a2d3c40",
            "321983be12b8582b6caad503afd4371698a1e41f9326022d0ab2bdd22d8ddd90",
            "3eac8df82071759da7b735ecb9a6bedaa70cc93be3ee656e3548963f85506878",
        ],
    ),
    (
        "brute-force-remaining",
        [
            "c6338f901df7da5eaaf337bd88c64cef2a1596a11886b54e477cfb83e42d5295",
            "a2264d061dad2e211fc1bd1f74767256837fc6bf04e1bfc1782b9da607b35a95",
            "84917304f02367efd11c65e336815147cd1186c36584d14f40dea8d51f09bd05",
        ],
    ),
    (
        "brute-force-none",
        [
            "e3aeca20f0b3e00869291324e56b53c8333676995efe206798c9048b5ee6288f",
            "44ec6779f5ea26cf067378a27138d98060467407d5cc270aa7137f9ac76a2bd2",
            "b8d910cf7e55a07855dcafdcb7e0b329b0b54fb071288d1ac6653be45f5c2f73",
        ],
    ),
    (
        "vote-flood",
        [
            "075701bbd82998ac528eb5b6af1575d570f5e45ddb59489021f758caf69b2b76",
            "5b7741f24e9acac11fc689e3ce7f31907dbc8a1320108322cbe1c7eab96498f9",
            "8e5fa1d16040a84384e651dc18532d6ea61563b82e84caa9f9c64b008ab80ffc",
        ],
    ),
    (
        "churn-storm",
        [
            "a363c794029d5ad691459be3ea506df62e686dde4cf5e654d979892181c8966a",
            "7d768b7decb96cbb71dfa24890e70319e7725235ae9092e312b6bdbe0da18852",
            "a3a4ba4ab2988a2f277312f2c0f5340818372e39217fbf382319855109909a3b",
        ],
    ),
    (
        "sybil-ramp",
        [
            "03d590abdf5a4fdfead9ca9e1765b7ebfb44ee9d042e13d8e4b4bd75d5ed13d0",
            "6404d86d42634a0b3d8cd75a8804ef48e39e229954bad1bbec2414d8dd447d4f",
            "9fbb8decd6e74fb572f0b679e6ce476aa86b82b42e2cd526aad330702ee017cc",
        ],
    ),
    (
        "mobile-takeover-light",
        [
            "dd25cf347a305f74bd204557ce409ab15f4c620684c05b3d3963e3c36e337b24",
            "8b6e05bf4e87afb01c1b77046bc91c9153747918564b490208622f4a35b06cf8",
            "f84771a77de7f529d8c0224f15e7fb2d249b0e123f0b243ee35cad83d7c3d335",
        ],
    ),
    (
        "mobile-takeover-heavy",
        [
            "d42305c81e4e333afce75dcea1b7a5c80d96aaf2fce383dbef6a899360c5c70e",
            "c5832f5e5ae55a3eb566f4ce07e44632e4f08f3b9e2aced6a4f04d8d6558de8b",
            "3c59b86e5f5f177035d736e31da6d327e82d654e1962f0359557937b3d6e5e45",
        ],
    ),
    (
        "stoppage-then-flood",
        [
            "296274cac207baedaf570bec3a7be7b121d7a9950f0099ffae2ede61632636f1",
            "dd29673667661cbda899887e5cbc47be8aea3550135b2d65c27d25d25865a2c5",
            "182ac924baefa3174c30d0d31a1253469b93cd4ebdd3c482aca44e0cd64c2325",
        ],
    ),
    (
        "storm-over-ramp",
        [
            "6b0d293d47c926faf5803bdf4b89cd049421275f763c85b46c547b807f887393",
            "a7dba446199f66e3645d1266b14ae8b904317ee5649460ecdbcf07b8c283454e",
            "b9a875312c01b4bcef5da817f8b78e6e683125e366c5c09b974bf0b97481c50b",
        ],
    ),
    (
        "stoppage-escalation",
        [
            "79b0023959da0d8f634900b21838f19a2403eb6462e3681b49720cd67b8aa45e",
            "0a1073ccf58e498dccb270a0dc9f0f24307ddc4659fb68a039def629c1d41cb3",
            "9571fc07067299b3cb64a121273fbb65c6e49050bf108b0acb0749df1d291f11",
        ],
    ),
    (
        "mobile-recovery-race",
        [
            "5fa9f10bc0d65994078130f09766245bdcc83cc68cc4cb16831aabd17f9be750",
            "ad22457aa3e345385a780bbe23a930fca328082a51d54c4f42a0cc03171e4313",
            "458020774cfccc9206a52f028b47a5641fee830981a4525d0ceb095d5307a904",
        ],
    ),
    (
        "scale-10k-baseline",
        [
            "f91a2f8af0479d80725aad64611fc59d61549c9bde9976a2faed8eeec861adde",
            "7b12155246551df4752d75f486edf8d1c4b5ced0562a2d7d04fd049794be4be8",
            "7b12155246551df4752d75f486edf8d1c4b5ced0562a2d7d04fd049794be4be8",
        ],
    ),
    (
        "scale-10k-churn-storm",
        [
            "31c2019b275baeafcc5c17cac48e1cf7d88756d00eb204da7d79ea1c056a5bef",
            "62ef178d945b27f2b6f091be4eed908ad8990fd0763f9a4d1cb694145f9be069",
            "62ef178d945b27f2b6f091be4eed908ad8990fd0763f9a4d1cb694145f9be069",
        ],
    ),
    (
        "scale-50k-attrition",
        [
            "d7fe4035d762612ad75bc5d38bb82664c432ab37d0d969544b849bd352d11273",
            "0f8dbe093652e983dcd3b6e70b0cbb8a107ba4b5f30e0e9ff4a2ba224a229533",
            "0f8dbe093652e983dcd3b6e70b0cbb8a107ba4b5f30e0e9ff4a2ba224a229533",
        ],
    ),
];

/// Every registry scenario builds to exactly the pinned world at every
/// scale. A change to a scenario file, to `ScenarioSpec::build`, or to a
/// default it leaves alone (`Scenario::baseline`, `WorldConfig`)
/// moves a digest; a deliberate one re-pins it here.
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
