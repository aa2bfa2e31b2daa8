//! The architecture's rules, one row each, run by `cargo test --test
//! structure`.
//!
//! North star 2 is "one mechanism per job": one event queue, one run path,
//! one JSON writer, one trace wire, and so on. Each row below names one such
//! rule, says why it exists, and checks it against the source tree read from
//! the repository root: every file under `crates/`, `src/`, `tests/`,
//! `examples/`, `benchmark/` and `.cargo/`, minus `target/` directories,
//! and the root `Cargo.toml`. This file is left out of that tree, because
//! it spells every name the rules forbid.
//!
//! Every row also carries planted violations. A plant lays text over one
//! file of the real tree (in front of what is there, so it lands before any
//! `#[cfg(test)]` cut), and the row must reject the result with the plant's
//! message. They are the mutations that show a row still bites.
//!
//! No regex crate: the workspace has no crates.io dependencies. Patterns
//! are fixed strings; the few character classes get small matchers below.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Repository-relative path (`/`-separated) → file text.
type Tree = BTreeMap<String, String>;

/// One architecture rule.
struct Rule {
    name: &'static str,
    why: &'static str,
    /// Every violation found, each a message naming where it is.
    check: fn(&Tree) -> Vec<String>,
    plants: &'static [Plant],
}

/// A planted violation: `text` laid in front of `path` (or as the whole
/// file, if there is none), which the rule must reject with a message
/// containing `expect`.
struct Plant {
    path: &'static str,
    text: &'static str,
    expect: &'static str,
}

const fn plant(path: &'static str, text: &'static str, expect: &'static str) -> Plant {
    Plant { path, text, expect }
}

const RULES: &[Rule] = &[
    Rule {
        name: "One event queue, not two",
        why: "The timing wheel *replaced* the binary heap. A second queue kept \
              beside it (or a fallback behind a flag) would double what the \
              golden pins and the differential oracle have to cover.",
        check: one_event_queue,
        plants: &[plant(
            "crates/sim/src/engine.rs",
            "use std::collections::BinaryHeap;\n",
            "crates/sim/src/engine.rs names BinaryHeap — the engine has one queue, the wheel",
        )],
    },
    Rule {
        name: "One table per job, no tree map beside it",
        why: "The flat per-cell tables *replaced* the tree maps on the invitation \
              path (introductions, last-admission stamps, voter sessions). The \
              only tree-map admission code left is the reference side of \
              crates/core/tests/admission_oracle.rs; a fallback kept beside a \
              table would be a second implementation the oracle does not drive. \
              The attack drivers' tables (the brute force's in-flight bogus \
              polls) are only looked up, inserted into and removed from, so an \
              ordered map there buys nothing a run can observe.",
        check: one_table_per_job,
        plants: &[
            plant(
                "crates/core/src/peer.rs",
                "use std::collections::BTreeMap;\n",
                "crates/core/src/peer.rs names BTreeMap outside #[cfg(test)] — its tables are flat",
            ),
            plant(
                "crates/adversary/src/brute_force.rs",
                "use std::collections::BTreeMap;\n",
                "crates/adversary/src/brute_force.rs names BTreeMap outside #[cfg(test)] — its \
                 tables are lookup-only",
            ),
        ],
    },
    Rule {
        name: "One binary, one run path",
        why: "The eleven figure binaries and the CSV memo were folded into \
              `lockss-sim figure` over `runner::run`; a new bin, or a new place \
              that builds and drives a World, is a second path the byte-identity \
              checks do not cover. A caller that pauses a run part-way (the \
              churn report, the recovery study, quickstart.rs, the facade's doc \
              example) steps a `runner::Run`, so runner.rs alone builds a World \
              and calls run_until.",
        check: one_run_path,
        plants: &[
            plant(
                "crates/experiments/src/bin/fig2.rs",
                "fn main() {}\n",
                "lockss-sim.rs is the one binary",
            ),
            plant(
                "crates/experiments/src/cache.rs",
                "pub struct Memo;\n",
                "crates/experiments/src/cache.rs exists",
            ),
            plant(
                "examples/stepper.rs",
                "let mut world = World::new(cfg);\n",
                "World::new( or run_until( is called from: \
                 crates/experiments/src/runner.rs examples/stepper.rs",
            ),
            plant(
                "crates/experiments/src/recovery.rs",
                "let mut world = World::new(cfg);\n",
                "World::new( or run_until( is called from: \
                 crates/experiments/src/recovery.rs crates/experiments/src/runner.rs",
            ),
        ],
    },
    Rule {
        name: "One event vocabulary",
        why: "Each fact a run reports is declared once and emitted once. The event \
              kinds, their codes, labels and fields are one table in \
              crates/core/src/trace.rs (trace_event_table!); core expands it into \
              the event types and crates/trace/src/wire.rs into the codecs. The \
              world states a fact at one point, World::trace, which hands the \
              event to CoreObs::observe and then to the sink — a counter bumped \
              beside an emission, a second verdict or compromise ledger, a field \
              list spelled out in wire.rs, or a hand-written code decoder is a \
              copy that can drift from the table. A Trace is LTRC2 bytes, read \
              by one reader; Trace::from_bytes accepts no other magic.",
        check: one_event_vocabulary,
        plants: &[
            plant(
                "crates/trace/src/wire.rs",
                "struct OwnedTraceReader;\n",
                "crates/trace/src names a second reader or a per-column codec",
            ),
            plant(
                "crates/trace/src/wire.rs",
                "TraceEvent::Damage { .. } TraceEvent::Damage { .. } TraceEvent::Damage { .. }\n",
                "wire.rs spells out an event payload more than twice outside its tests \
                 (one write site, one read site):\n      3 TraceEvent::Damage {",
            ),
            plant(
                "crates/trace/src/wire.rs",
                "let e = Damage { peer: 1 };\n",
                "wire.rs names Damage with a field list outside its tests",
            ),
            plant(
                "crates/core/src/poller.rs",
                "o.polls_started.inc();\n",
                "crates/core/src/poller.rs bumps a metric handle beside an emission",
            ),
            plant(
                "crates/core/src/world.rs",
                "obs.observe(event);\n",
                "crates/core/src/world.rs hands events to CoreObs at 2 lines",
            ),
            plant(
                "crates/core/src/churn.rs",
                "o.repairs_requested.inc();\n",
                "repairs_requested.inc() appears 2 times",
            ),
            plant(
                "crates/core/src/obs.rs",
                "pub struct CompromiseStats;\n",
                "a second admission verdict type or compromise ledger under crates/",
            ),
            plant(
                "crates/core/src/types.rs",
                "fn from_code(c: u8) {}\n",
                "crates/core/src has 2 `fn from_code`",
            ),
        ],
    },
    Rule {
        name: "One argv parser",
        why: "lockss-sim's command line is one declarative table \
              (crates/experiments/src/cli.rs) read by one parser, which rejects \
              every flag the table does not list. A second scan of argv beside \
              it is a flag the table, the --help text and the typo checks do not \
              know about.",
        check: one_argv_parser,
        plants: &[
            plant(
                "crates/experiments/src/figures.rs",
                "let argv = std::env::args();\n",
                "crates/experiments/src reads std::env::args at 2 lines",
            ),
            plant(
                "crates/experiments/src/bin/lockss-sim.rs",
                "fn main() {\n    let argv = std::env::args();\n}\n",
                "lockss-sim's fn main reads std::env::args at 2 lines",
            ),
            plant(
                "crates/experiments/src/cli.rs",
                "fn flag_value() {}\n",
                "a second argv scanner under crates/",
            ),
        ],
    },
    Rule {
        name: "One block encoder",
        why: "The LTRC2 writer has one encoder: events are pushed straight into \
              the open block's columns and every block — full ones on the seal \
              worker, the last partial one in `finish`, a short recording's only \
              one on the calling thread — goes through the one `seal_block`. A \
              `Vec<TraceRecord>` of pending events in the recorder, a second \
              block encoder, or a decode pass that spawns a scope per chunk of \
              blocks is the old path kept beside the new; the record-transposing \
              encoder lives on only as the reference side of \
              crates/trace/tests/block_oracle.rs.",
        check: one_block_encoder,
        plants: &[
            plant(
                "crates/trace/src/format.rs",
                "fn seal_block() {}\n",
                "crates/trace/src has 2 `fn seal_block`",
            ),
            plant(
                "crates/trace/src/lz.rs",
                "fn encode_block_body() {}\n",
                "crates/trace/src/lz.rs encodes a block from records outside #[cfg(test)]",
            ),
            plant(
                "crates/trace/src/format.rs",
                "struct RecorderInner {\n    pending: Vec<TraceRecord>,\n}\n",
                "the recorder buffers records",
            ),
            plant(
                "crates/trace/src/parallel.rs",
                "fn chunk() { std::thread::scope(|s| {}); }\n",
                "crates/trace/src/parallel.rs opens 2 thread scopes",
            ),
        ],
    },
    Rule {
        name: "One JSON writer",
        why: "Every fixed-schema JSON document is written through the one \
              json::Writer beside the one reader (crates/obs/src/json.rs): one \
              escaping rule, one float rule, separators and indentation in one \
              place. A second escaper, a hand-rolled list or float helper, or a \
              JSON key spelled inside a string literal is an emitter beside the \
              writer, with its own rules.",
        check: one_json_writer,
        plants: &[
            plant(
                "crates/sim/src/json.rs",
                "pub struct Writer;\n",
                "2 crates/*/src/json.rs files",
            ),
            plant(
                "crates/sim/src/lib.rs",
                "fn escape(s: &str) {}\n",
                "2 `fn escape(` under crates/*/src",
            ),
            plant(
                "crates/metrics/src/table.rs",
                "fn json_f64() {}\n",
                "crates/metrics/src/table.rs keeps a JSON escaping, list or float helper of its own",
            ),
            plant(
                "crates/metrics/src/table.rs",
                r#"let doc = "{\"rows\": 1}";"#,
                "crates/metrics/src/table.rs spells a JSON key inside a string literal",
            ),
        ],
    },
    Rule {
        name: "One measuring arithmetic",
        why: "crates/bench measures one way: every line is sampled in interleaved \
              rounds and reported as median and quartiles, and `bench diff` \
              judges it against one band that both marks and gates. A second \
              sampling mode, a mean/min/max statistic, a gate-threshold flag or a \
              second duration formatter is the old arithmetic kept beside the new.",
        check: one_measuring_arithmetic,
        plants: &[
            plant(
                "crates/bench/src/diff.rs",
                "fn mean_ns() {}\n",
                "crates/bench/src keeps a second sampling mode or mean/min/max",
            ),
            plant(
                "crates/experiments/src/cli.rs",
                "// --gate-pct\n",
                "bench diff takes one gate flag",
            ),
            plant(
                "benchmark/src/main.rs",
                "fn fmt_ns() {}\n",
                "2 `fn fmt_ns` in the repository",
            ),
        ],
    },
    Rule {
        name: "One poll datapath",
        why: "The simulator charges time for hashing and effort proofs and never \
              runs them, as the paper's Narses runs did. \"Real mode\", a second \
              synchronous poll over real hashes, MBF proofs and sessions that no \
              scenario, figure or oracle reached, was deleted rather than kept as \
              a demonstration. lockss-crypto is SHA-256 for the trace seals and \
              golden digests, and nothing on the poll path depends on it.",
        check: one_poll_datapath,
        plants: &[
            plant(
                "crates/crypto/src/mbf.rs",
                "pub struct Puzzle;\n",
                "crates/crypto/src holds lib.rs mbf.rs sha256.rs",
            ),
            plant(
                "crates/core/src/poller.rs",
                "struct RealPoller;\n",
                "a second poll datapath under crates/, src/, tests/ or examples/",
            ),
            plant(
                "crates/net/Cargo.toml",
                "lockss-crypto = { path = \"../crypto\" }\n",
                "lockss-core, lockss-net and lockss-storage do not depend on lockss-crypto",
            ),
        ],
    },
    Rule {
        name: "One trace wire",
        why: "A recorded run is one wire, LTRC2, written by Recorder and read by \
              Trace::from_bytes, and every reader decodes whole blocks. The flat \
              LTRC1 importer, its writer, `trace convert` and the kind-masked \
              block decode were deleted; a wire tag, a second magic, a mask \
              parameter or the generic field-buffer traits that let one codec \
              target two layouts would bring the second wire's machinery back. \
              (The bare string LTRC1 stays allowed: a hostile-bytes test feeds an \
              old file in and expects bad magic.)",
        check: one_trace_wire,
        plants: &[
            plant(
                "crates/trace/src/legacy.rs",
                "pub fn import() {}\n",
                "crates/trace/src/legacy.rs exists",
            ),
            plant(
                "tests/trace_v2.rs",
                "const MAGIC_V1: &[u8] = b\"LTRC1\";\n",
                "a second trace wire or a masked block decode",
            ),
            plant(
                "crates/experiments/src/cli.rs",
                "const CONVERT: &str = \"trace convert\";\n",
                "lockss-sim has no trace convert verb",
            ),
        ],
    },
    Rule {
        name: "No RNG state but the stream",
        why: "A SimRng is its 8-byte splitmix64 state. The rejection-zone cache \
              and the sampling scratch buffer it used to carry never changed a \
              draw, cost 544 bytes a peer in the peer table plus a buffer per \
              stream, and were deleted; the rejection bound is computed per draw \
              and the dense sampler allocates its index vector per call.",
        check: no_rng_state_but_the_stream,
        plants: &[plant(
            "crates/sim/src/rng.rs",
            "struct Cache { zone_cache: [u64; 4] }\n",
            "a cache or scratch buffer in the RNG",
        )],
    },
    Rule {
        name: "One poll lookup",
        why: "Every poller step may arrive after its poll concluded or was \
              replaced. Each finds its poll once, through PeerTable::live_poll or \
              live_poll_mut; the old liveness check plus `expect(\"current\")` \
              re-lookups are gone. The poller and voter machines live beside \
              their state in poller.rs and voter.rs, not in world.rs.",
        check: one_poll_lookup,
        plants: &[
            plant(
                "crates/core/src/poller.rs",
                "let poll = peers.poll(p).expect(\"current\");\n",
                "a second poll lookup under crates/core/src",
            ),
            plant(
                "crates/core/src/world.rs",
                "fn finalize_poll() {}\n",
                "a poller or voter handler in world.rs",
            ),
        ],
    },
    Rule {
        name: "One burst, one blackout",
        why: "The admission flood, the sybil ramp and the brute force aim one burst \
              timer at each (victim, AU) and wait out the victim's refractory period; \
              the tag packing, the opening jitter, the refractory wait and the \
              garbage-invitation loop are written once, in \
              crates/adversary/src/flood.rs. The pipe stoppage and the churn storm \
              darken a fresh random subset and restore it; they are one Blackout on \
              two clocks, in crates/adversary/src/blackout.rs. A second copy of \
              either mechanism is one the golden digests pin twice and the next fix \
              mends once.",
        check: one_burst_one_blackout,
        plants: &[
            plant(
                "crates/adversary/src/sybil_ramp.rs",
                "if let Some(until) = world.peers.au(v, 0).admission.refractory_until() {}\n",
                "the burst mechanism outside crates/adversary/src/flood.rs",
            ),
            plant(
                "crates/adversary/src/vote_flood.rs",
                "world.net.set_stopped(node, true);\n",
                "set_stopped( outside crates/adversary/src/blackout.rs",
            ),
            plant(
                "crates/adversary/src/churn_storm.rs",
                "pub struct ChurnStorm;\n",
                "crates/adversary/src/churn_storm.rs exists",
            ),
        ],
    },
    Rule {
        name: "Trace events own no heap",
        why: "A TraceEvent is plain Copy data (32 bytes on 64-bit targets), so \
              recording allocates nothing per event and a decoded block is one \
              buffer with no drop glue per record. A String, Vec or Box field in \
              trace_event_table! would put a heap allocation back on every event \
              of its kind. Every label a run can emit is one row of label_table! \
              in crates/core/src/trace.rs; the wire carries its string, and a \
              decoder rejects any string the table does not declare. A label \
              spelled as a literal elsewhere, or passed as a string to an \
              emitter, is a second vocabulary the decoder does not know.",
        check: trace_events_own_no_heap,
        plants: &[
            plant(
                "crates/core/src/trace.rs",
                "macro_rules! trace_event_table {\n    label: String,\n}\n",
                "trace_event_table! field `label: String` owns heap",
            ),
            plant(
                "crates/adversary/src/vote_flood.rs",
                "world.note_adversary_action(eng, \"vote-flood/surge\", 1);\n",
                "a string literal passed to an emitter",
            ),
            plant(
                "crates/adversary/src/vote_flood.rs",
                "const WAVE: &str = \"vote-flood/wave\";\n",
                "a declared label spelled outside label_table!",
            ),
        ],
    },
    Rule {
        name: "No program code spawns a process",
        why: "A host runs a campaign's seeds in parallel one way, `sweep \
              --threads N` on par_map's pool. Across processes or hosts a \
              campaign is a jobfile of `sweep --shard i/N` lines for an executor \
              (`xargs -P`, a scheduler, ssh) to run; a failed line is rerun and \
              resumes from its checkpoint, and `sweep merge` checks the result. \
              The subprocess supervisor that spawned, retried and stall-killed \
              workers was measured no faster than either and wrote no different \
              byte, and was deleted. Tests and the benchmark harness may spawn \
              the binary; crates/*/src, src/ and examples/ may not.",
        check: no_program_code_spawns_a_process,
        plants: &[plant(
            "crates/experiments/src/sweep/dispatch.rs",
            "fn spawn(bin: &Path) { let _ = std::process::Command::new(bin).spawn(); }\n",
            "a process spawned under crates/*/src, src/ or examples/",
        )],
    },
    Rule {
        name: "No configuration from the environment",
        why: "A run is fixed by its command line, its scenario file and its \
              seed. A value read from the environment is a setting no --help \
              lists and no byte-identity check varies; the SHA-256 backend \
              override was one, and went once a unit test ran the portable core \
              on the NIST vectors directly. The one reader left is the sweep \
              crash hook (LOCKSS_SWEEP_CRASH_AFTER, sweep/shard.rs), a fault \
              injection for the resume test that no finished sweep's bytes \
              depend on. Tests and the benchmark harness may read the \
              environment; crates/*/src, src/ and examples/ may not.",
        check: no_configuration_from_the_environment,
        plants: &[
            plant(
                "crates/crypto/src/sha256.rs",
                "fn force_portable() -> bool { std::env::var_os(\"FORCE\").is_some() }\n",
                "\ncrates/crypto/src/sha256.rs:1: fn force_portable()",
            ),
            plant(
                "crates/experiments/src/runner.rs",
                "fn seed() -> Option<String> { std::env::var(\"LOCKSS_SEED\").ok() }\n",
                "\ncrates/experiments/src/runner.rs:1: fn seed()",
            ),
        ],
    },
    Rule {
        name: "One release profile",
        why: "The workspace and the benchmark (its own workspace under \
              benchmark/) build with the one [profile.release] in \
              .cargo/config.toml, which cargo reads for any build started in \
              the repository. A [profile.*] in a manifest reaches one of \
              the two builds only, so the binary measured and the binary shipped \
              would be compiled differently; a second profile (a release-fast) \
              is a binary nobody measures. The row reads benchmark/Cargo.toml \
              and never writes it.",
        check: one_release_profile,
        plants: &[
            plant(
                "Cargo.toml",
                "[profile.release]\nlto = true\n",
                "\nCargo.toml:1: [profile.release]",
            ),
            plant(
                "benchmark/Cargo.toml",
                "[profile.release]\npanic = \"abort\"\n",
                "\nbenchmark/Cargo.toml:1: [profile.release]",
            ),
            plant(
                ".cargo/config.toml",
                "[profile.release-fast]\ninherits = \"release\"\n",
                ".cargo/config.toml declares [\"[profile.release-fast]\", \"[profile.release]\"]",
            ),
        ],
    },
    Rule {
        name: "Every pub fn has a program caller",
        why: "A public function that only its own unit tests reach is surface \
              with no behaviour behind it: it is read, documented and kept \
              compiling for nothing. A caller is a non-test, non-comment line \
              under crates/*/src, crates/bench/benches, src/, examples/ or \
              benchmark/src that names the function and does not define it. \
              A `use` or `pub use` declaration, one line or a `{…}` list over \
              several, imports a name without calling it, so it is no caller. \
              Names are matched as words, so a name shared with a called \
              function passes. UNCALLED_ALLOWED lists the exceptions, each with \
              its reason.",
        check: every_pub_fn_has_a_caller,
        plants: &[
            plant(
                "crates/sim/src/lib.rs",
                "pub fn nobody_calls_this() {}\n",
                "pub fn nobody_calls_this has no program caller (crates/sim/src/lib.rs:1)",
            ),
            plant(
                "crates/sim/src/lib.rs",
                "pub use self::hidden::only_reexported;\nmod hidden {\n    pub fn only_reexported() {}\n}\n",
                "pub fn only_reexported has no program caller (crates/sim/src/lib.rs:3)",
            ),
            plant(
                "crates/sim/src/lib.rs",
                "pub use self::hidden::{\n    only_listed,\n};\nmod hidden {\n    pub fn only_listed() {}\n}\n",
                "pub fn only_listed has no program caller (crates/sim/src/lib.rs:5)",
            ),
            plant(
                "src/lib.rs",
                "fn flag(v: &Value) -> Option<bool> { v.as_bool() }\n",
                "as_bool is allowed to have no program caller",
            ),
        ],
    },
];

/// Public functions kept with no program caller, each with its reason.
/// An entry that gains a caller or is no longer defined fails the row.
const UNCALLED_ALLOWED: [(&str, &str); 2] = [
    (
        "as_bool",
        "one of the JSON reader's typed accessors; benchmark/src/main.rs's tests call it",
    ),
    (
        "run_to_exhaustion",
        "crates/sim/tests/engine_oracle.rs runs the events scheduled at SimTime(u64::MAX) with it",
    ),
];

// ---------------------------------------------------------------------------
// The rows' checks. Each keeps its guard's patterns, scopes and messages.
// ---------------------------------------------------------------------------

fn one_event_queue(t: &Tree) -> Vec<String> {
    let path = "crates/sim/src/engine.rs";
    flag(
        grep(file(t, path), |l| l.contains("BinaryHeap")),
        &format!("{path} names BinaryHeap — the engine has one queue, the wheel"),
    )
}

fn one_table_per_job(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    for path in ["crates/core/src/admission.rs", "crates/core/src/peer.rs"] {
        out.extend(flag(
            grep(program_of(t, path), |l| l.contains("BTreeMap")),
            &format!("{path} names BTreeMap outside #[cfg(test)] — its tables are flat"),
        ));
    }
    for (path, text) in files(t, &["crates/adversary/src"]) {
        out.extend(flag(
            grep(Some((path, program(text))), |l| l.contains("BTreeMap")),
            &format!("{path} names BTreeMap outside #[cfg(test)] — its tables are lookup-only"),
        ));
    }
    out
}

fn one_run_path(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    let bins = children(t, "crates/experiments/src/bin");
    if bins != ["lockss-sim.rs"] {
        out.push(format!(
            "crates/experiments/src/bin holds {} — lockss-sim.rs is the one binary",
            bins.join(" ")
        ));
    }
    if t.contains_key("crates/experiments/src/cache.rs") {
        out.push(
            "crates/experiments/src/cache.rs exists — figures are simulated, not memoised"
                .to_string(),
        );
    }
    let builders: Vec<&str> = files(t, &["crates/experiments/src", "examples", "src"])
        .filter(|(_, text)| contains_any(text, &["World::new(", "run_until("]))
        .map(|(path, _)| path)
        .collect();
    if builders != ["crates/experiments/src/runner.rs"] {
        out.push(format!(
            "World::new( or run_until( is called from: {}\n\
             only runner.rs (the run path) may build or drive a World; a caller \
             that pauses a run part-way steps a runner::Run",
            builders.join(" ")
        ));
    }
    out
}

fn one_event_vocabulary(t: &Tree) -> Vec<String> {
    let mut out = flag(
        grep_all(t, &["crates/trace/src"], |l| {
            contains_any(
                l,
                &[
                    "OwnedTraceReader",
                    "ReaderState",
                    "put_event_fields",
                    "get_event_fields",
                ],
            )
        }),
        "crates/trace/src names a second reader or a per-column codec — there is one \
         TraceReader and one event table",
    );

    let wire = before_mod_tests(text_of(t, "crates/trace/src/wire.rs"));
    let repeated: Vec<String> = payload_spellings(wire)
        .into_iter()
        .filter(|&(_, n)| n > 2)
        .map(|(event, n)| format!("      {n} {event}"))
        .collect();
    if !repeated.is_empty() {
        out.push(format!(
            "wire.rs spells out an event payload more than twice outside its tests \
             (one write site, one read site):\n{}",
            repeated.join("\n")
        ));
    }

    let kinds = event_kinds(text_of(t, "crates/core/src/trace.rs"));
    if kinds.is_empty() {
        out.push("crates/core/src/trace.rs declares no event kind rows".to_string());
    }
    let wire_joined = wire.replace('\n', " ");
    for kind in kinds {
        if names_with_field_list(&wire_joined, kind) {
            out.push(format!(
                "wire.rs names {kind} with a field list outside its tests — the fields \
                 are the rows of lockss_core::trace_event_table!"
            ));
        }
    }

    let emitters = [
        "crates/core/src/world.rs",
        "crates/core/src/churn.rs",
        "crates/core/src/poller.rs",
        "crates/core/src/voter.rs",
    ];
    for path in emitters {
        out.extend(flag(
            grep(program_of(t, path), |l| {
                contains_any(l, &[".inc()", ".observe("])
                    && !contains_any(l, &["o.repairs_requested.inc()", "obs.observe(event)"])
            }),
            &format!(
                "{path} bumps a metric handle beside an emission — counters are fed by \
                 CoreObs::observe from World::trace"
            ),
        ));
    }
    let handed = count_lines(text_of(t, "crates/core/src/world.rs"), "obs.observe(event)");
    if handed != 1 {
        out.push(format!(
            "crates/core/src/world.rs hands events to CoreObs at {handed} lines — \
             World::trace is the one point that states a fact"
        ));
    }
    let bumped: usize = emitters
        .iter()
        .map(|p| count_lines(text_of(t, p), "repairs_requested.inc()"))
        .sum();
    if bumped != 1 {
        out.push(format!(
            "repairs_requested.inc() appears {bumped} times in world.rs, churn.rs, \
             poller.rs and voter.rs — it is the one handle bumped outside CoreObs::observe"
        ));
    }
    out.extend(flag(
        grep_all(t, &["crates"], |l| {
            contains_any(l, &["AdmissionOutcome", "CompromiseStats"])
        }),
        "a second admission verdict type or compromise ledger under crates/ — \
         AdmissionVerdict and the trace are the one statement of each",
    ));
    let decoders = grep_all(t, &["crates/core/src"], |l| l.contains("fn from_code")).len();
    if decoders != 1 {
        out.push(format!(
            "crates/core/src has {decoders} `fn from_code` — trace_event_table! writes \
             the one code decoder"
        ));
    }
    out
}

fn one_argv_parser(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    let reads = grep_all(t, &["crates/experiments/src"], |l| {
        l.contains("std::env::args")
    });
    if reads.len() != 1 {
        out.push(format!(
            "crates/experiments/src reads std::env::args at {} lines — cli.rs parses \
             the one argv:\n{}",
            reads.len(),
            reads.join("\n")
        ));
    }
    let bin = text_of(t, "crates/experiments/src/bin/lockss-sim.rs");
    let in_main: usize = ranges(bin, "fn main", "}")
        .map(|r| count_lines(r, "std::env::args"))
        .sum();
    if in_main != 1 {
        out.push(format!(
            "lockss-sim's fn main reads std::env::args at {in_main} lines — it hands \
             argv to cli::parse once"
        ));
    }
    out.extend(flag(
        grep_all(t, &["crates"], |l| {
            contains_any(
                l,
                &[
                    "flag_value",
                    "parsed_flag",
                    "fn operands",
                    "from_env_and_args",
                ],
            )
        }),
        "a second argv scanner under crates/ — parse the command line with \
         lockss_experiments::cli",
    ));
    out
}

fn one_block_encoder(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    let sealers = grep_all(t, &["crates/trace/src"], |l| l.contains("fn seal_block")).len();
    if sealers != 1 {
        out.push(format!(
            "crates/trace/src has {sealers} `fn seal_block` — every block goes through \
             the one sealer"
        ));
    }
    for (path, text) in files(t, &["crates/trace/src"]) {
        let top_level = !path["crates/trace/src/".len()..].contains('/');
        if top_level && path.ends_with(".rs") {
            out.extend(flag(
                grep(Some((path, program(text))), |l| {
                    l.contains("fn encode_block_body")
                }),
                &format!(
                    "{path} encodes a block from records outside #[cfg(test)] — events \
                     are pushed into a BlockBuf and sealed by seal_block"
                ),
            ));
        }
    }
    let recorder = text_of(t, "crates/trace/src/format.rs");
    if ranges(recorder, "struct RecorderInner", "}").any(|r| r.contains("Vec<TraceRecord>")) {
        out.push(
            "the recorder buffers records — it pushes fields into the open block's columns"
                .to_string(),
        );
    }
    let scopes = count_lines(
        program(text_of(t, "crates/trace/src/parallel.rs")),
        "thread::scope(",
    );
    if scopes != 1 {
        out.push(format!(
            "crates/trace/src/parallel.rs opens {scopes} thread scopes outside \
             #[cfg(test)] — one scope decodes all blocks"
        ));
    }
    out
}

fn one_json_writer(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    let writers: Vec<&str> = crate_src_files(t)
        .map(|(path, _)| path)
        .filter(|p| p.split('/').count() == 4 && p.ends_with("/src/json.rs"))
        .collect();
    if writers.len() != 1 {
        out.push(format!(
            "{} crates/*/src/json.rs files ({}) — crates/obs/src/json.rs is the one",
            writers.len(),
            writers.join(" ")
        ));
    }
    let escapers = crate_src_files(t)
        .flat_map(|f| grep(Some(f), |l| l.contains("fn escape(")))
        .count();
    if escapers != 1 {
        out.push(format!(
            "{escapers} `fn escape(` under crates/*/src — json.rs has the one escaping rule"
        ));
    }
    for (path, text) in crate_src_files(t).filter(|(p, _)| p.ends_with(".rs")) {
        let body = Some((path, program(text)));
        out.extend(flag(
            grep(body, |l| {
                contains_any(l, &["push_escaped", "u64_list", "json_f64", "fmt_f64"])
            }),
            &format!(
                "{path} keeps a JSON escaping, list or float helper of its own — write \
                 through lockss_sim::json::Writer"
            ),
        ));
        if !path.ends_with("/json.rs") {
            out.extend(flag(
                grep(body, |l| l.contains("\\\": ")),
                &format!(
                    "{path} spells a JSON key inside a string literal outside \
                     #[cfg(test)] — write it with json::Writer"
                ),
            ));
        }
    }
    out
}

fn one_measuring_arithmetic(t: &Tree) -> Vec<String> {
    let mut out = flag(
        grep_all(t, &["crates/bench/src"], |l| {
            contains_any(l, &["bench_pair", "mean_ns", "min_ns", "max_ns"])
        }),
        "crates/bench/src keeps a second sampling mode or mean/min/max — lines are \
         median and quartiles of interleaved rounds",
    );
    out.extend(flag(
        grep_all(t, &["crates/experiments/src"], |l| {
            contains_any(l, &["--gate-pct", "--gate-bench"])
        }),
        "bench diff takes one gate flag; the band comes from the measured quartiles",
    ));
    let formatters = t
        .iter()
        .filter(|(path, _)| path.ends_with(".rs"))
        .flat_map(|(path, text)| grep(Some((path, text)), |l| l.contains("fn fmt_ns")))
        .count();
    if formatters != 1 {
        out.push(format!(
            "{formatters} `fn fmt_ns` in the repository — lockss_bench::fmt_ns is the one \
             duration formatter"
        ));
    }
    out
}

fn one_poll_datapath(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    let crypto = children(t, "crates/crypto/src");
    if crypto != ["lib.rs", "sha256.rs"] {
        out.push(format!(
            "crates/crypto/src holds {} — lockss-crypto is SHA-256 and nothing else",
            crypto.join(" ")
        ));
    }
    out.extend(flag(
        grep_all(t, &["crates", "src", "tests", "examples"], |l| {
            contains_any(
                l,
                &[
                    "realproto",
                    "RealPoller",
                    "MbfPuzzle",
                    "Session::pair",
                    "running_hashes",
                ],
            )
        }),
        "a second poll datapath under crates/, src/, tests/ or examples/ — the \
         simulator's poll is the only one",
    ));
    for path in [
        "crates/core/Cargo.toml",
        "crates/net/Cargo.toml",
        "crates/storage/Cargo.toml",
    ] {
        out.extend(flag(
            grep(file(t, path), |l| l.contains("lockss-crypto")),
            "lockss-core, lockss-net and lockss-storage do not depend on lockss-crypto — \
             the poll path never hashes",
        ));
    }
    out
}

fn one_trace_wire(t: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    if t.contains_key("crates/trace/src/legacy.rs") {
        out.push("crates/trace/src/legacy.rs exists — LTRC2 is the one wire".to_string());
    }
    out.extend(flag(
        grep_all(t, &["crates", "src", "tests", "examples"], |l| {
            contains_any(
                l,
                &[
                    "MAGIC_V1",
                    "RecorderV1",
                    "TraceWire",
                    "kind_mask",
                    "skip_column",
                    "decode_block_masked",
                    "FieldBufs",
                    "FieldCursors",
                ],
            )
        }),
        "a second trace wire or a masked block decode under crates/, src/, tests/ or \
         examples/ — LTRC2 is the one wire and blocks decode whole",
    ));
    let cli = "crates/experiments/src/cli.rs";
    out.extend(flag(
        grep(file(t, cli), |l| l.contains("\"trace convert\"")),
        "lockss-sim has no trace convert verb — there is no other wire to convert from",
    ));
    out
}

fn no_rng_state_but_the_stream(t: &Tree) -> Vec<String> {
    flag(
        grep_all(t, &["crates", "src", "tests", "examples"], |l| {
            contains_any(l, &["zone_cache", "ZONE_SLOTS", "idx_scratch"])
        }),
        "a cache or scratch buffer in the RNG under crates/, src/, tests/ or examples/ \
         — SimRng is { state: u64 }",
    )
}

fn one_poll_lookup(t: &Tree) -> Vec<String> {
    let mut out = flag(
        grep_all(t, &["crates/core/src"], |l| {
            contains_any(l, &["poll_is_current", "expect(\"current\")"])
        }),
        "a second poll lookup under crates/core/src — find the poll once with \
         PeerTable::live_poll/live_poll_mut",
    );
    let world = "crates/core/src/world.rs";
    out.extend(flag(
        grep(file(t, world), |l| {
            contains_any(
                l,
                &[
                    "fn start_poll",
                    "fn finalize_poll",
                    "fn poller_on_",
                    "fn voter_on_",
                ],
            )
        }),
        "a poller or voter handler in world.rs — the machines live in poller.rs and \
         voter.rs",
    ));
    out
}

fn one_burst_one_blackout(t: &Tree) -> Vec<String> {
    let homes: [(&str, &[&str], &str); 2] = [
        (
            "crates/adversary/src/flood.rs",
            &[
                "refractory_until()",
                "duration_between(",
                "<< 28",
                "charge_loyal(",
            ],
            "the burst mechanism outside crates/adversary/src/flood.rs (a refractory \
             wait, an opening jitter, a burst-tag packing or a garbage-invitation \
             charge) — call its helpers",
        ),
        (
            "crates/adversary/src/blackout.rs",
            &["set_stopped("],
            "set_stopped( outside crates/adversary/src/blackout.rs — a strategy that \
             darkens peers is a Blackout clock",
        ),
    ];
    let mut out = Vec::new();
    for (home, needles, message) in homes {
        let hits = files(t, &["crates/adversary/src"])
            .filter(|(path, _)| *path != home)
            .flat_map(|(path, text)| {
                grep(Some((path, program(text))), |l| contains_any(l, needles))
            })
            .collect();
        out.extend(flag(hits, message));
    }
    for gone in ["pipe_stoppage.rs", "churn_storm.rs"] {
        let path = format!("crates/adversary/src/{gone}");
        if t.contains_key(&path) {
            out.push(format!(
                "{path} exists — it is a Blackout clock in blackout.rs"
            ));
        }
    }
    out
}

fn trace_events_own_no_heap(t: &Tree) -> Vec<String> {
    let path = "crates/core/src/trace.rs";
    let trace = program(text_of(t, path));
    let mut out = Vec::new();
    for table in ranges(trace, "macro_rules! trace_event_table", "}") {
        for line in table.lines().map(str::trim) {
            let Some((field, ty)) = line.strip_suffix(',').and_then(|l| l.split_once(": ")) else {
                continue;
            };
            let is_field =
                !field.is_empty() && field.chars().all(|c| c.is_ascii_lowercase() || c == '_');
            if is_field && contains_any(ty, &["String", "Vec<", "Box<"]) {
                out.push(format!(
                    "{path}: trace_event_table! field `{field}: {ty}` owns heap — an event \
                     is plain Copy data; a label is a declared Label"
                ));
            }
        }
    }

    let labels = declared_labels(trace);
    if labels.is_empty() {
        out.push(format!("{path} declares no label_table! rows"));
    }
    // Action labels (`strategy/action`) belong to no other vocabulary;
    // strategy names double as scenario and attack-spec names, so they
    // are held out of the crates that emit events.
    let spelled = |file: (&str, &str), all: bool| {
        grep(Some(file), |l| {
            labels
                .iter()
                .filter(|label| all || label.contains('/'))
                .any(|label| l.contains(&format!("\"{label}\"")))
        })
    };
    let emitters = ["crates/adversary/src", "crates/core/src"];
    let hits = crate_src_files(t)
        .filter(|(p, _)| *p != path)
        .flat_map(|(p, text)| {
            spelled(
                (p, program(text)),
                emitters.iter().any(|d| p.starts_with(d)),
            )
        })
        .collect();
    out.extend(flag(
        hits,
        "a declared label spelled outside label_table! — name the Label variant",
    ));
    out.extend(flag(
        files(t, &["crates", "src", "examples"])
            .flat_map(|(p, text)| {
                grep(Some((p, program(text))), |l| {
                    contains_any(l, &["note_adversary_action(", "mark_phase("]) && l.contains('"')
                })
            })
            .collect(),
        "a string literal passed to an emitter — note_adversary_action and \
         World::mark_phase take a Label",
    ));
    out
}

/// The strings of `label_table!`'s rows: lines of the form
/// `<spaces><Upper><alnum>* => "<label>",`.
fn declared_labels(text: &str) -> Vec<&str> {
    ranges(text, "label_table! {", "}")
        .flat_map(str::lines)
        .filter_map(|line| {
            let (name, label) = line.trim().split_once(" => \"")?;
            let upper = name.starts_with(|c: char| c.is_ascii_uppercase())
                && name.chars().all(|c| c.is_ascii_alphanumeric());
            (upper && line.starts_with(' ')).then_some(label.strip_suffix("\",")?)
        })
        .collect()
}

fn no_program_code_spawns_a_process(t: &Tree) -> Vec<String> {
    let program_files = crate_src_files(t).chain(files(t, &["src", "examples"]));
    let hits = program_files
        .filter(|(path, _)| path.ends_with(".rs"))
        .flat_map(|(path, text)| {
            grep(Some((path, program(text))), |l| {
                contains_any(l, &["Command::new", "process::Command"])
            })
        })
        .collect();
    flag(
        hits,
        "a process spawned under crates/*/src, src/ or examples/ outside #[cfg(test)] \
         — run shards from a `sweep --jobfile` under any executor instead",
    )
}

fn no_configuration_from_the_environment(t: &Tree) -> Vec<String> {
    let program_files = crate_src_files(t).chain(files(t, &["src", "examples"]));
    let hits = program_files
        .filter(|(path, _)| {
            path.ends_with(".rs") && *path != "crates/experiments/src/sweep/shard.rs"
        })
        .flat_map(|(path, text)| {
            grep(Some((path, program(text))), |l| {
                contains_any(l, &["env::var", "var_os"])
            })
        })
        .collect();
    flag(
        hits,
        "the environment read under crates/*/src, src/ or examples/ outside #[cfg(test)] \
         — only the sweep crash hook may; take a flag or a spec field instead",
    )
}

fn one_release_profile(t: &Tree) -> Vec<String> {
    // `[profile.x]`, `[profile]` and the dotted `profile.x.key = v`.
    let declares = |l: &str| {
        let l = l.trim_start();
        l.starts_with("[profile") || l.starts_with("profile.")
    };
    let manifests = t
        .iter()
        .filter(|(path, _)| *path == "Cargo.toml" || path.ends_with("/Cargo.toml"));
    let hits = manifests
        .flat_map(|(path, text)| grep(Some((path.as_str(), text.as_str())), declares))
        .collect();
    let mut found = flag(
        hits,
        "a Cargo.toml declares a profile — the one profile is .cargo/config.toml's \
         [profile.release], which the benchmark's build reads too",
    );
    let sections: Vec<&str> = text_of(t, ".cargo/config.toml")
        .lines()
        .filter(|l| declares(l))
        .map(str::trim)
        .collect();
    if sections != ["[profile.release]"] {
        found.push(format!(
            ".cargo/config.toml declares {sections:?} — it holds exactly one profile, \
             [profile.release]"
        ));
    }
    found
}

fn every_pub_fn_has_a_caller(t: &Tree) -> Vec<String> {
    // Definitions: `pub fn` / `pub const fn` / `pub unsafe fn` in program
    // code under crates/*/src.
    let mut defined: BTreeMap<&str, String> = BTreeMap::new();
    for (path, text) in crate_src_files(t).filter(|(p, _)| p.ends_with(".rs")) {
        for (n, line) in program(text).lines().enumerate() {
            let line = line.trim_start();
            let rest = ["pub fn ", "pub const fn ", "pub unsafe fn "]
                .iter()
                .find_map(|p| line.strip_prefix(p));
            let name = rest.map(|r| &r[..r.find(|c| !is_word(c)).unwrap_or(r.len())]);
            if let Some(name) = name.filter(|n| !n.is_empty()) {
                defined
                    .entry(name)
                    .or_insert_with(|| format!("{path}:{}", n + 1));
            }
        }
    }
    // Callers: every word on a program line that is neither a comment nor
    // part of a `use` declaration, except the name a `fn` on that line
    // defines.
    let mut called: BTreeSet<&str> = BTreeSet::new();
    let caller_dirs = ["crates", "src", "examples", "benchmark/src"];
    for (path, text) in files(t, &caller_dirs) {
        let scoped = !path.starts_with("crates/")
            || path.split('/').nth(2) == Some("src")
            || path.starts_with("crates/bench/benches/");
        if !scoped || !path.ends_with(".rs") {
            continue;
        }
        let mut in_use = false;
        for line in program(text).lines() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            // A declaration runs from its `use` to its `;`.
            if in_use || is_use_declaration(trimmed) {
                in_use = !line.contains(';');
                continue;
            }
            let mut previous = "";
            for word in line.split(|c| !is_word(c)).filter(|w| !w.is_empty()) {
                if previous != "fn" {
                    called.insert(word);
                }
                previous = word;
            }
        }
    }
    let mut out = Vec::new();
    for (name, at) in &defined {
        let allowed = UNCALLED_ALLOWED.iter().any(|(a, _)| a == name);
        if !called.contains(name) && !allowed {
            out.push(format!(
                "pub fn {name} has no program caller ({at}) — delete it, or move it into \
                 the test that uses it"
            ));
        }
    }
    for (name, reason) in UNCALLED_ALLOWED {
        if !defined.contains_key(name) {
            out.push(format!(
                "{name} is allowed to have no program caller ({reason}), but no pub fn \
                 {name} is defined — drop it from UNCALLED_ALLOWED"
            ));
        } else if called.contains(name) {
            out.push(format!(
                "{name} is allowed to have no program caller ({reason}), but it has one \
                 now — drop it from UNCALLED_ALLOWED"
            ));
        }
    }
    out
}

/// True when `line` (trimmed) opens a `use` declaration, with or without a
/// `pub`/`pub(…)` visibility.
fn is_use_declaration(line: &str) -> bool {
    let rest = match line.strip_prefix("pub") {
        Some(r) if r.starts_with('(') => r.split_once(')').map_or(r, |(_, after)| after),
        Some(r) => r,
        None => line,
    };
    rest.trim_start().starts_with("use ")
}

// ---------------------------------------------------------------------------
// Scanning the tree.
// ---------------------------------------------------------------------------

/// The directories the rules read, relative to the repository root.
const ROOTS: [&str; 6] = ["crates", "src", "tests", "examples", "benchmark", ".cargo"];

/// The files at the repository root the rules read.
const ROOT_FILES: [&str; 1] = ["Cargo.toml"];

/// Reads every UTF-8 file under [`ROOTS`], skipping `target/` directories
/// and this file, and the [`ROOT_FILES`].
fn read_tree() -> Tree {
    fn walk(root: &Path, dir: &Path, tree: &mut Tree) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(root, &path, tree);
                }
            } else if let Ok(text) = std::fs::read_to_string(&path) {
                let rel = path.strip_prefix(root).expect("under the root");
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                if rel != "tests/structure.rs" {
                    tree.insert(rel, text);
                }
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Tree::new();
    for dir in ROOTS {
        walk(root, &root.join(dir), &mut tree);
    }
    for name in ROOT_FILES {
        let text =
            std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        tree.insert(name.to_string(), text);
    }
    tree
}

/// The files under any of `dirs`, recursively, in path order.
fn files<'t>(t: &'t Tree, dirs: &'t [&str]) -> impl Iterator<Item = (&'t str, &'t str)> {
    t.iter()
        .filter(move |(path, _)| {
            dirs.iter().any(|d| {
                path.strip_prefix(*d)
                    .is_some_and(|rest| rest.starts_with('/'))
            })
        })
        .map(|(p, s)| (p.as_str(), s.as_str()))
}

/// The files under `crates/<name>/src/`, recursively.
fn crate_src_files(t: &Tree) -> impl Iterator<Item = (&str, &str)> {
    files(t, &["crates"]).filter(|(path, _)| path.split('/').nth(2) == Some("src"))
}

/// The names directly under `dir`, as `ls` lists them.
fn children(t: &Tree, dir: &str) -> Vec<String> {
    let names: BTreeSet<String> = files(t, &[dir])
        .map(|(path, _)| path[dir.len() + 1..].split('/').next().unwrap().to_string())
        .collect();
    names.into_iter().collect()
}

/// The text of `path`, or `""` if it is absent.
fn text_of<'t>(t: &'t Tree, path: &str) -> &'t str {
    t.get(path).map_or("", String::as_str)
}

/// `path` with its text, if it is in the tree.
fn file<'t>(t: &'t Tree, path: &'t str) -> Option<(&'t str, &'t str)> {
    t.get(path).map(|text| (path, text.as_str()))
}

/// `path` with its text cut at the first `#[cfg(test)]`.
fn program_of<'t>(t: &'t Tree, path: &'t str) -> Option<(&'t str, &'t str)> {
    t.get(path).map(|text| (path, program(text)))
}

/// The text before the first line containing `#[cfg(test)]`.
fn program(text: &str) -> &str {
    cut_at_line(text, |l| l.contains("#[cfg(test)]"))
}

/// The text before the first line that starts with `mod tests`.
fn before_mod_tests(text: &str) -> &str {
    cut_at_line(text, |l| l.starts_with("mod tests"))
}

fn cut_at_line(text: &str, stop: impl Fn(&str) -> bool) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if stop(line) {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

/// Every block from a line starting with `start` through the next line
/// starting with `end`, as `sed -n '/^start/,/^end/p'` prints them.
fn ranges<'a>(text: &'a str, start: &'a str, end: &'a str) -> impl Iterator<Item = &'a str> {
    let mut blocks = Vec::new();
    let mut open: Option<usize> = None;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        match open {
            None if line.starts_with(start) => open = Some(at),
            Some(from) if line.starts_with(end) => {
                blocks.push(&text[from..at + line.len()]);
                open = None;
            }
            _ => {}
        }
        at += line.len();
    }
    if let Some(from) = open {
        blocks.push(&text[from..]);
    }
    blocks.into_iter()
}

/// `path:line: text` for each line of one file that matches.
fn grep(file: Option<(&str, &str)>, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let Some((path, text)) = file else {
        return Vec::new();
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| hit(l))
        .map(|(n, l)| format!("{path}:{}: {}", n + 1, l.trim()))
        .collect()
}

/// [`grep`] over every file under `dirs`.
fn grep_all(t: &Tree, dirs: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    files(t, dirs).flat_map(|f| grep(Some(f), &hit)).collect()
}

/// `message`, followed by the hits, if there are any.
fn flag(hits: Vec<String>, message: &str) -> Vec<String> {
    if hits.is_empty() {
        Vec::new()
    } else {
        vec![format!("{message}\n{}", hits.join("\n"))]
    }
}

fn contains_any(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

fn count_lines(text: &str, needle: &str) -> usize {
    text.lines().filter(|l| l.contains(needle)).count()
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Counts each `TraceEvent::<Upper><alpha>* {` spelling in `text`.
fn payload_spellings(text: &str) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    let mut rest = text;
    while let Some(at) = rest.find("TraceEvent::") {
        rest = &rest[at + "TraceEvent::".len()..];
        let len = rest
            .find(|c: char| !c.is_ascii_alphabetic())
            .unwrap_or(rest.len());
        let name = &rest[..len];
        if name.starts_with(|c: char| c.is_ascii_uppercase()) && rest[len..].starts_with(" {") {
            *counts.entry(format!("TraceEvent::{name} {{")).or_insert(0) += 1;
            rest = &rest[len + 2..];
        }
    }
    counts
}

/// The kind names of `trace_event_table!`'s rows: lines of the form
/// `<spaces><Upper><alpha>+ = <digits> => "`.
fn event_kinds(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| {
            let body = line.trim_start_matches(' ');
            if body.len() == line.len() {
                return None;
            }
            let (name, rest) = body.split_once(" = ")?;
            let alpha = name.len() >= 2
                && name.starts_with(|c: char| c.is_ascii_uppercase())
                && name.chars().all(|c| c.is_ascii_alphabetic());
            let (code, rest) = rest.split_once(' ')?;
            let numeric = !code.is_empty() && code.chars().all(|c| c.is_ascii_digit());
            (alpha && numeric && rest.starts_with("=> \"")).then_some(name)
        })
        .collect()
}

/// Whether `text` has `kind` as a whole word followed, before any `{`, `}`
/// or `;`, by `{ <lower_or_underscore>+ :` (spaces optional around the
/// field name): the kind spelled out with a field list.
fn names_with_field_list(text: &str, kind: &str) -> bool {
    let bytes = text.as_bytes();
    text.match_indices(kind).any(|(at, _)| {
        let end = at + kind.len();
        let bounded = (at == 0 || !is_word(bytes[at - 1] as char))
            && (end == bytes.len() || !is_word(bytes[end] as char));
        if !bounded {
            return false;
        }
        let rest = &text[end..];
        let Some(open) = rest.find(['{', '}', ';']) else {
            return false;
        };
        if !rest[open..].starts_with('{') {
            return false;
        }
        let field = rest[open + 1..].trim_start_matches(' ');
        let len = field
            .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
            .unwrap_or(field.len());
        len > 0 && field[len..].trim_start_matches(' ').starts_with(':')
    })
}

// ---------------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------------

#[test]
fn every_rule_holds_on_the_tree() {
    let tree = read_tree();
    let broken: Vec<String> = RULES
        .iter()
        .filter_map(|rule| {
            let found = (rule.check)(&tree);
            (!found.is_empty())
                .then(|| format!("{}\n  why: {}\n{}", rule.name, rule.why, found.join("\n")))
        })
        .collect();
    assert!(broken.is_empty(), "\n{}", broken.join("\n\n"));
}

#[test]
fn every_rule_rejects_its_planted_violations() {
    let tree = read_tree();
    for rule in RULES {
        assert!(!rule.plants.is_empty(), "{} has no plant", rule.name);
        for p in rule.plants {
            let mut planted = tree.clone();
            let text = format!("{}{}", p.text, text_of(&tree, p.path));
            planted.insert(p.path.to_string(), text);
            let found = (rule.check)(&planted);
            assert!(
                found.iter().any(|m| m.contains(p.expect)),
                "{}: planting {:?} in {} did not fail with {:?}; found:\n{}",
                rule.name,
                p.text,
                p.path,
                p.expect,
                found.join("\n")
            );
        }
    }
}

#[test]
fn the_matchers_agree_with_their_patterns() {
    // `TraceEvent::[A-Z][A-Za-z]* {`
    let spelled =
        payload_spellings("TraceEvent::Damage { a } TraceEvent::damage { TraceEvent::Cure{");
    assert_eq!(
        spelled.into_iter().collect::<Vec<_>>(),
        [("TraceEvent::Damage {".to_string(), 1)]
    );
    // `^ +[A-Z][A-Za-z]+ = [0-9]+ => "`
    let kinds = event_kinds(
        "    PollStart = 1 => \"poll-start\" {\nDamage = 5 => \"d\"\n  X = 2 => \"x\"\n  Cure = x => \"c\"\n",
    );
    assert_eq!(kinds, ["PollStart"]);
    // `\bKind\b[^{};]*\{ *[a-z_]+ *:`
    assert!(names_with_field_list("Damage { peer: 1 }", "Damage"));
    assert!(names_with_field_list("Damage(x) {peer_au :", "Damage"));
    assert!(!names_with_field_list("Damage; { peer: 1 }", "Damage"));
    assert!(!names_with_field_list("BigDamage { peer: 1 }", "Damage"));
    assert!(!names_with_field_list("Damage { .. }", "Damage"));
    assert!(!names_with_field_list("Damage { Peer: 1 }", "Damage"));
    // `^label_table! \{` through `^\}`, rows `^ +[A-Z][A-Za-z0-9]* => "(.*)",`
    let labels = declared_labels(
        "x => \"out\",\nlabel_table! {\n    Label {\n        Stop => \"pipe/stop\",\n        \
         lower => \"no\",\nTop => \"no\",\n        Name2 => \"name\",\n    }\n}\n    X => \"after\",\n",
    );
    assert_eq!(labels, ["pipe/stop", "name"]);
    let real = declared_labels(text_of(&read_tree(), "crates/core/src/trace.rs")).len();
    assert_eq!(real, lockss::core::Label::ALL.len());
}
