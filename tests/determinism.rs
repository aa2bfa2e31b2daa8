//! Determinism regression tests: a run is a pure function of its
//! configuration and seed, and `run_batch`'s parallelism must not leak
//! into the results (floating-point reductions are order-sensitive, so
//! the runner slots results by seed, not by completion order).
//!
//! `Summary` derives `PartialEq`, which compares every field — including
//! the `f64` effort accumulators — exactly, so these assertions demand
//! byte-identical results, not epsilon closeness.

use std::cell::Cell;

use lockss::core::{World, WorldConfig};
use lockss::crypto::sha256::{sha256, to_hex};
use lockss::experiments::figures::{self, Sweeps};
use lockss::experiments::runner::{run, run_batch, run_once, Run, RunOptions, RunOutput};
use lockss::experiments::scenario::{AttackSpec, Scenario};
use lockss::experiments::sweep::{load_checkpoint, run_sweep, summary_to_json};
use lockss::experiments::{run_recovery_study, RecoveryStudy, Scale, ScenarioRegistry};
use lockss::sim::{Duration, Engine, SimTime};
use lockss::trace::{TraceMeta, TraceRecord};

fn quick(attack: AttackSpec) -> Scenario {
    let mut s = Scenario::attacked(Scale::Quick, 2, attack);
    s.run_length = Duration::from_days(120);
    s
}

#[test]
fn world_summary_identical_across_two_runs() {
    let run = || {
        let cfg = WorldConfig {
            n_peers: 25,
            n_aus: 2,
            seed: 42,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        let end = SimTime::ZERO + Duration::from_days(120);
        eng.run_until(&mut world, end);
        world.metrics.summarize(end)
    };
    assert_eq!(run(), run());
}

#[test]
fn run_once_identical_across_two_runs() {
    let s = quick(AttackSpec::None);
    assert_eq!(run_once(&s, 7), run_once(&s, 7));
    let s = quick(AttackSpec::PipeStoppage {
        coverage: 1.0,
        days: 30,
    });
    assert_eq!(run_once(&s, 7), run_once(&s, 7));
}

/// Every registered scenario, shrunk to a smoke-test world: 30 peers,
/// 2 AUs, 150 simulated days (enough to cover every composite's latest
/// phase offset, 120 days).
fn shrunken_registry_jobs() -> Vec<(String, Scenario)> {
    ScenarioRegistry::standard()
        .entries()
        .iter()
        .map(|e| {
            let mut s = e.build(Scale::Quick);
            s.cfg.n_peers = 30;
            s.cfg.n_aus = 2;
            s.run_length = Duration::from_days(150);
            (e.name.clone(), s)
        })
        .collect()
}

#[test]
fn every_registered_scenario_runs_and_reproduces() {
    for (name, s) in shrunken_registry_jobs() {
        let a = run_once(&s, 7);
        let b = run_once(&s, 7);
        assert_eq!(a, b, "scenario '{name}' is not byte-reproducible");
        assert!(
            a.successful_polls + a.failed_polls > 0,
            "scenario '{name}' concluded no polls at all"
        );
    }
}

#[test]
fn every_registered_scenario_is_thread_count_invariant() {
    let jobs: Vec<Scenario> = shrunken_registry_jobs()
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let single = run_batch(&jobs, 2, 1, None);
    let parallel = run_batch(&jobs, 2, 4, None);
    for (i, (name, _)) in shrunken_registry_jobs().iter().enumerate() {
        assert_eq!(
            single[i], parallel[i],
            "scenario '{name}' varies with the thread count"
        );
    }
}

/// Records one shrunken scenario and returns the trace's content hash
/// and the SHA-256 of its summary's checkpoint encoding.
fn record_digests(name: &str, scenario: &Scenario, seed: u64) -> (String, String) {
    record_digests_by(name, scenario, seed, |opts| run(scenario, seed, opts))
}

/// [`record_digests`] with the run driven by `drive`, handed the
/// recording options.
fn record_digests_by(
    name: &str,
    scenario: &Scenario,
    seed: u64,
    drive: impl FnOnce(&RunOptions) -> RunOutput,
) -> (String, String) {
    let meta = TraceMeta {
        scenario: name.to_string(),
        scale: "quick".to_string(),
        seed,
        run_length_ms: scenario.run_length.as_millis(),
    };
    let out = drive(&RunOptions::record(&meta));
    let digest = to_hex(&sha256(summary_to_json(&out.summary).as_bytes()));
    let trace = out.trace.expect("a recorded run seals a trace");
    (trace.content_hash(), digest)
}

/// Records one shrunken scenario and returns the trace's content hash.
fn record_hash(name: &str, scenario: &Scenario, seed: u64) -> String {
    record_digests(name, scenario, seed).0
}

/// Golden-trace regression: for pinned `(scenario, seed)` pairs the trace
/// content hash must be byte-stable across repeated recordings. Any change
/// here means the causal event stream moved — either a deliberate protocol
/// change (fine: the hash follows it deterministically) or a determinism
/// leak (the bug this test exists to catch).
#[test]
fn golden_trace_hashes_are_stable_across_runs() {
    let pinned = ["baseline", "pipe-stoppage", "stoppage-then-flood"];
    for (name, s) in shrunken_registry_jobs() {
        if !pinned.contains(&name.as_str()) {
            continue;
        }
        for seed in [7u64, 11] {
            let a = record_hash(&name, &s, seed);
            let b = record_hash(&name, &s, seed);
            assert_eq!(a, b, "trace hash of '{name}' seed {seed} not reproducible");
        }
    }
}

/// The same pinned traces recorded on concurrently running threads must
/// hash identically: nothing about recording may depend on scheduling.
#[test]
fn golden_trace_hashes_are_thread_invariant() {
    let (name, s) = shrunken_registry_jobs()
        .into_iter()
        .find(|(n, _)| *n == "stoppage-then-flood")
        .expect("registered");
    let sequential = record_hash(&name, &s, 7);
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                let name = &name;
                scope.spawn(move || record_hash(name, &s, 7))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for hash in concurrent {
        assert_eq!(
            hash, sequential,
            "'{name}' trace hash varies across threads"
        );
    }
}

/// The registered production-scale world, shrunk for debug-mode test
/// speed: same builder, same link mix and lazy construction path, smaller
/// population and horizon. (The full 10k-peer sweep byte-identity runs in
/// release mode in CI: `sweep scale-10k-baseline --seeds 1..8` with
/// `--threads 1` vs `--threads 8`, `cmp`-ed.)
fn shrunken_scale_scenario() -> Scenario {
    let mut s = ScenarioRegistry::standard()
        .build("scale-10k-baseline", Scale::Quick)
        .expect("registered");
    s.cfg.n_peers = 300;
    s.run_length = Duration::from_days(150);
    s
}

/// `(scenario, seed, trace content hash, SHA-256 of `summary_to_json`)`
/// for the shrunken worlds above, recorded on the `BinaryHeap` engine
/// before the timing wheel replaced it; the brute-force, vote-flood,
/// sybil-ramp and storm-over-ramp rows were added later, recorded on the
/// commit before the adversary strategies shared one burst and one
/// blackout mechanism. These are the only digests in the
/// tree pinned *across commits*: an engine, network or protocol change
/// that reorders same-instant events, moves an RNG draw or shifts a float
/// moves them. A deliberate protocol change regenerates the table from
/// the failure message; a refactor must leave it alone.
const GOLDEN_DIGESTS: &[(&str, u64, &str, &str)] = &[
    (
        "baseline",
        7,
        "4291d22e58a0106029defe864cdda5d119fe3ffaa492b59a30250d730adb0034",
        "79f7dc054b021e6ec239db60561431b8747f06bd92948d0d90e1a7f563803df8",
    ),
    (
        "baseline",
        11,
        "25d9be49d806d857a8243292c4871f9f3aecb229c279851f4becfd16e18291b1",
        "1c03e18a1a4d9bbb7e83fad25e79ab0ce5677fdae5aef107a6a4d91369202d0b",
    ),
    (
        "pipe-stoppage",
        7,
        "1b6c00890c6474f1d5719c6f18c09146730ad71bcb22953ff8f7159d9a02fbe0",
        "c0ee3da92195ee196d32c473db68d4c915a5d7d14b8792fb1d7ae973fec66c6a",
    ),
    (
        "pipe-stoppage",
        11,
        "a4a0f1a29389c38119f6e6391c06268c39e293936b1d73da248598e29f0d98d0",
        "ebed1cbb43485496b015271c150fbb55fe021ae3d45e2b686ec2e2ceac58d73e",
    ),
    (
        "admission-flood",
        7,
        "24458a65173df9f8bff38ea4619a32160c14fa14ab38cf25278bd1baeece5bb0",
        "4aa8f8a95389c42bcc9ffa72c102df4337397bc908dc7c53176a5ab2c0d27812",
    ),
    (
        "admission-flood",
        11,
        "522898f49c84e99c0a6f72803b4cc28e6d1494d732229349239d71455e3f9dc8",
        "d429b9ef1e07658627b7122112731c58a328a15060d810c34b0cda935006b187",
    ),
    (
        "brute-force-intro",
        7,
        "9b93f73b7163084d067993568b2759038bc8f0a4ea9bcfd891ce4d4a5c363f5e",
        "c433c839bef1cfff087e43f1a75ac4ec3ad7c5b56644dcda3edfd2849992d6c0",
    ),
    (
        "brute-force-intro",
        11,
        "14ab16288a84cac8710dea7f9a77d586f5711f3a7f4aef6156012ed590fbff97",
        "e3d5aa7a927c8c03a9f20f4199e3261dd92945570d218711004db890fa7bfc0b",
    ),
    (
        "brute-force-remaining",
        7,
        "05251fe2921bb7613743ed346fdf97f0f0d0a38c9f4f6a658bc5a41622e89354",
        "14c939b821578e1a761881907f21a355334cb3487daac80329936febb64a9de3",
    ),
    (
        "brute-force-remaining",
        11,
        "6451ead67b96544f9318053a48ee1994cf77e6de4ed03569949332b833984cf9",
        "9e1e45f01c672b0e9041e9b5a13803237cdf660932fa016dc63fd3717e416e47",
    ),
    (
        "brute-force-none",
        7,
        "bc851f737c569c32bd847463dbdbe3c788126a54e48c0a55f0e88bc06458d960",
        "a309dbd69681df915c00d9a65253237e351f64b3eba39a0503a476597119770d",
    ),
    (
        "brute-force-none",
        11,
        "a4b2e2c5b64015351d6423c5105e58640ee97467b40c95bc800ce55443f00e2a",
        "b9300480ab96625320da22b5f6605e4851ecc745c2be8d033ce46463c470cc84",
    ),
    (
        "vote-flood",
        7,
        "6708fc435170dcbe0e23faa5738917c344409e91152696efaabd3a6d0a88c272",
        "79f7dc054b021e6ec239db60561431b8747f06bd92948d0d90e1a7f563803df8",
    ),
    (
        "vote-flood",
        11,
        "d4a1c3021f7a161b884603975dbbb6a5f60a97705bcd2b0d8e7c4ed12cd1fd83",
        "1c03e18a1a4d9bbb7e83fad25e79ab0ce5677fdae5aef107a6a4d91369202d0b",
    ),
    (
        "churn-storm",
        7,
        "6af5c8afe324c7a0b434c31eee2aedf1d7068a0dad19965b1c1c34f446e00f45",
        "8117275f50f0cc39c5f9d7fbcc0c7425ce1b6075978e3b5c3002335d49502200",
    ),
    (
        "churn-storm",
        11,
        "7769418bdc0c4462d89018b73c2a5ba21256a8a00831ea4febdae9d04c4bccf2",
        "d452de772ad2cc7d854163fe594c4fe4a9805c92946bc58d8747f18e5545d19e",
    ),
    (
        "sybil-ramp",
        7,
        "3c468505904bb099c782a2f13cea6e7a5875b0dee72981c7136a20d625a0c8d7",
        "8007ca2090df4686467fceef89d51d84f3fd41767e4e952031f382076d2f5075",
    ),
    (
        "sybil-ramp",
        11,
        "eb0d87fc4bb9153cd9159f0839a966fc97d7e07ca0e96ed1219d602a5294ce0b",
        "f7634e22cda27935ca21069657357c210999ec30cd3cde5f3fb5af70aa3b4457",
    ),
    (
        "mobile-takeover-light",
        7,
        "f9870bd8a5c773579f119b0f6e040c734299d508350b38cd2bdd3aae2e73578c",
        "5e2100b38a8582b50bd311712f212c0b6b0b68ac60565b4c46f8739b50fe6924",
    ),
    (
        "mobile-takeover-light",
        11,
        "2817d6b066281d7d79996a82e209c5ae4bf7a0cdaff354927563ef636f1153dc",
        "ec1b0298a5564961ad52c65aee58a33f027fc5b81ef181a6baa496f0e22357f8",
    ),
    (
        "stoppage-then-flood",
        7,
        "eda4a8ef8118d28bb5d5c0fda8810e71d89bd6b0e8a3570184f9c3d666be5626",
        "2f3b9ec8ba023c6f619f0432dcbfe03b302efa0acadbfba3cd082e529dcab339",
    ),
    (
        "stoppage-then-flood",
        11,
        "dbe7261867cc732f0a0d5a3695e0477801e1793ad85c345b2ccf657a20d7f260",
        "d247a1d71c18bc87dbc4f4474130484b52da1d11c1227991f0582df908d58cd1",
    ),
    (
        "storm-over-ramp",
        7,
        "7dd04460fb22d7278cf486dd76ef256e784705baec3858dfa63a02e713ea0260",
        "a9722f40f2dd5963e1b6f6204dcad0c4fec32baf78cfb28b18e42109427063c3",
    ),
    (
        "storm-over-ramp",
        11,
        "fd0b05c9e47eed1726315fff3f362ae2ad20826e39bbe5ba4c6cff9da9f23717",
        "29f28acfc4c80095b6c2cb0d60d310c6073fb29b455c9eeda98182eed64eccd5",
    ),
    (
        "scale-10k-baseline",
        7,
        "784b072d702391854f4787e6e72ebcebcffe5252e17cf57ffba8b8ec6bff0649",
        "50b40d6cf18bc4f664609cc460649c3ef317dd37ba130ef2a326b72eb1acc8f5",
    ),
    (
        "scale-10k-baseline",
        11,
        "501d113e2b0ffce42ee1606168ed4a1394ab64f1447b33ce525e6eed5855d02e",
        "0545b333e50202ff27addd051fcf6262435cf3f7fdc50e94315a87b5efff5ff0",
    ),
];

/// The literal pins. Unlike the reproducibility tests above, which
/// compare a run with itself, this one fails when `(time, seq)` execution
/// order changes between two commits.
#[test]
fn golden_digests_match_the_pinned_literals() {
    assert_golden_digests(record_digests);
}

/// The pinned runs again, each advanced in seven-day slices instead of in
/// one step to its horizon. No horizon is a multiple of a week, and
/// whole-day adversary timers fall exactly on some slice boundaries,
/// where `run_until` leaves an event for the next slice. Slicing must not
/// move a byte.
#[test]
fn a_run_advanced_in_slices_matches_the_pinned_literals() {
    let step = Duration::from_days(7);
    let on_a_boundary = Cell::new(0);
    assert_golden_digests(|name, s, seed| {
        record_digests_by(name, s, seed, |opts| {
            let mut cfg = s.cfg.clone();
            cfg.seed = seed;
            let mut run = Run::start(cfg, s.attack.build(), opts);
            let end = SimTime::ZERO + s.run_length;
            let mut at = SimTime::ZERO;
            while at < end {
                at = (at + step).min(end);
                run.advance_to(at);
            }
            let out = run.finish();
            let trace = out.trace.as_ref().expect("a recorded run seals a trace");
            let boundary = |r: &TraceRecord| {
                let ms = r.at.since(SimTime::ZERO).as_millis();
                ms > 0 && ms.is_multiple_of(step.as_millis())
            };
            let records = trace.decode_all().expect("a sealed trace decodes");
            on_a_boundary.set(on_a_boundary.get() + records.iter().filter(|r| boundary(r)).count());
            out
        })
    });
    assert!(on_a_boundary.get() > 0, "no event ran on a slice boundary");
}

/// Runs every pinned `(scenario, seed)` through `digests` and holds the
/// results to `GOLDEN_DIGESTS`.
fn assert_golden_digests(digests: impl Fn(&str, &Scenario, u64) -> (String, String)) {
    let pinned = [
        "baseline",
        "pipe-stoppage",
        "stoppage-then-flood",
        "admission-flood",
        "brute-force-intro",
        "brute-force-remaining",
        "brute-force-none",
        "vote-flood",
        "churn-storm",
        "sybil-ramp",
        "mobile-takeover-light",
        "storm-over-ramp",
    ];
    let mut jobs: Vec<(String, Scenario)> = shrunken_registry_jobs()
        .into_iter()
        .filter(|(name, _)| pinned.contains(&name.as_str()))
        .collect();
    assert_eq!(
        jobs.len(),
        pinned.len(),
        "a pinned scenario left the registry"
    );
    jobs.push(("scale-10k-baseline".to_string(), shrunken_scale_scenario()));

    let mut actual = String::new();
    let mut got = Vec::new();
    for (name, s) in &jobs {
        for seed in [7u64, 11] {
            let (trace, summary) = digests(name, s, seed);
            actual.push_str(&format!(
                "    (\n        {name:?},\n        {seed},\n        {trace:?},\n        {summary:?},\n    ),\n"
            ));
            got.push((name.clone(), seed, trace, summary));
        }
    }
    let want: Vec<(String, u64, String, String)> = GOLDEN_DIGESTS
        .iter()
        .map(|&(n, seed, t, s)| (n.to_string(), seed, t.to_string(), s.to_string()))
        .collect();
    assert!(
        got == want,
        "golden digests moved; if (and only if) the change is a deliberate \
         protocol change, replace GOLDEN_DIGESTS with:\n{actual}"
    );
}

/// SHA-256 of the `figure churn` table at quick scale and of the recovery
/// study at CI's shape (`sweep recovery --budgets 2,30 --seeds 1..2
/// --attack-days 90`). Both reports pause their world part-way (the churn
/// report joins a peer at month 3, the study probes damage daily), so
/// these pins hold the paused runs to the bytes, as `GOLDEN_DIGESTS` does
/// the whole ones. Recorded before the two reports moved onto
/// `runner::Run`; a refactor must leave them alone.
const CHURN_TABLE_SHA256: &str = "ca92bd9ec7be04545851a935a3fc1712753d2e1d213b0d670be06b6b679c4d70";
const RECOVERY_REPORT_SHA256: &str =
    "b6720b476da70cecc24287a25ca196875c97458a5ecdf508f812d0be45afce1d";

#[test]
fn paused_reports_match_their_pinned_literals() {
    let churn = figures::select(&["churn".to_string()]).expect("'churn' is a figure id")[0]
        .render(&Sweeps::new(Scale::Quick))
        .table;
    let study = RecoveryStudy {
        budgets: vec![2, 30],
        seeds: vec![1, 2],
        attack_days: 90,
        ..RecoveryStudy::default()
    };
    let recovery = run_recovery_study(&study, 2).render();
    let digest = |text: &str| to_hex(&sha256(text.as_bytes()));
    assert_eq!(digest(&churn), CHURN_TABLE_SHA256, "churn table:\n{churn}");
    assert_eq!(
        digest(&recovery),
        RECOVERY_REPORT_SHA256,
        "recovery report:\n{recovery}"
    );
}

/// The sweep orchestrator's merged report must be byte-identical no
/// matter how many worker threads raced over the seeds: results land in
/// seed-indexed slots and the merge reduces in seed order.
#[test]
fn sweep_report_is_thread_count_invariant() {
    let s = shrunken_scale_scenario();
    let seeds = [1, 2, 3, 4];
    let one = run_sweep(&s, "scale-10k-baseline", "quick", &seeds, 1, None, None);
    let eight = run_sweep(&s, "scale-10k-baseline", "quick", &seeds, 8, None, None);
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "merged sweep report must not depend on the thread count"
    );
    assert!(one.is_complete());
    assert!(one.merged().expect("merged").successful_polls > 0);
}

/// A sweep interrupted after some seeds and resumed from its checkpoint
/// file must produce a final report byte-identical to an uninterrupted
/// run: summaries round-trip through the checkpoint exactly (float bits
/// included), and resumed seeds are reused verbatim.
#[test]
fn sweep_checkpoint_resume_equals_uninterrupted() {
    let s = shrunken_scale_scenario();
    let seeds = [1, 2, 3];
    let dir = std::env::temp_dir().join(format!("lockss-determinism-{}", std::process::id()));
    let uninterrupted = dir.join("uninterrupted.json");
    let interrupted = dir.join("interrupted.json");

    let full = run_sweep(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds,
        2,
        Some(&uninterrupted),
        None,
    );

    // "Crash" after two seeds: the partial checkpoint is what survives.
    let _ = run_sweep(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds[..2],
        2,
        Some(&interrupted),
        None,
    );
    let prior = load_checkpoint(&interrupted, "scale-10k-baseline", "quick", None)
        .expect("checkpoint loads");
    assert_eq!(prior.completed.len(), 2);
    let resumed = run_sweep(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds,
        2,
        Some(&interrupted),
        Some(prior),
    );

    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "resume must reproduce the uninterrupted report byte for byte"
    );
    let on_disk = std::fs::read_to_string(&interrupted).expect("final checkpoint");
    assert_eq!(on_disk, full.to_json(), "final file matches too");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_batch_is_thread_count_invariant() {
    let jobs = [
        quick(AttackSpec::None),
        quick(AttackSpec::AdmissionFlood {
            coverage: 1.0,
            days: 120,
        }),
    ];
    let single = run_batch(&jobs, 3, 1, None);
    let parallel = run_batch(&jobs, 3, 4, None);
    assert_eq!(single, parallel);
    // And the batch path agrees with the sequential per-seed path.
    let repeat = run_batch(&jobs, 3, 4, None);
    assert_eq!(parallel, repeat);
}
