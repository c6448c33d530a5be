//! Golden-fixture layer: the structure and deterministic result fields
//! of the benchmark and certification artifacts are pinned by canonical
//! JSON fixtures (and an FNV-1a checksum manifest) under `tests/golden/`.
//!
//! Wall-clock measurements vary run to run, so the canonical form keeps
//! every timing *key* but replaces its value with a `"<timing>"`
//! placeholder — a format change or a result drift fails here first,
//! while rerunning on faster hardware never does. After an intentional
//! change, run `tests/golden/regen-golden.sh` and review the diff.

use rdt::json::{Json, ToJson};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Keys whose values are wall-clock measurements (or ratios of them).
const TIMING_KEYS: &[&str] = &[
    "ns",
    "incremental_ns",
    "batch_est_ns",
    "legacy_ns",
    "executor_ns",
    "speedup",
    "events_per_sec",
    "legacy_events_per_sec",
    "executor_events_per_sec",
    "min_speedup",
    "compacted_throughput_ratio",
    "control_throughput_ratio",
    // Allocation counts are exact, but only the benchmark binary's
    // counting allocator produces them — under the test harness they
    // read zero, so the canonical form treats them like timings.
    "legacy_allocs",
    "executor_allocs",
    // `rdt-lint --json` wall time.
    "elapsed_ns",
    // BENCH-CERTIFY wall clock and throughput.
    "orbit_ns",
    "structures_per_sec",
];

const TIMING_PLACEHOLDER: &str = "<timing>";

/// Replaces every timing-keyed value with the placeholder, recursively.
fn scrub(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(key, value)| {
                    let value = if TIMING_KEYS.contains(&key.as_str()) {
                        Json::Str(TIMING_PLACEHOLDER.to_string())
                    } else {
                        scrub(value)
                    };
                    (key.clone(), value)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(scrub).collect()),
        other => other.clone(),
    }
}

/// BENCH-RDTCHECK rows are positional tuples
/// `(messages, delivered, naive_ns, optimized_ns, speedup, check_ns)`:
/// everything past index 1 is wall-clock and must be scrubbed by position.
fn canonical_rdtcheck() -> Json {
    let mut json = rdt_bench::closure_bench(&[80, 160], 2).to_json();
    if let Json::Obj(pairs) = &mut json {
        for (key, value) in pairs.iter_mut() {
            let Json::Arr(rows) = value else { continue };
            if key != "rows" {
                continue;
            }
            for row in rows {
                let Json::Arr(cells) = row else { continue };
                for cell in cells.iter_mut().skip(2) {
                    *cell = Json::Str(TIMING_PLACEHOLDER.to_string());
                }
            }
        }
    }
    scrub(&json)
}

/// Every pinned artifact, in manifest order, at fixed quick scales. Each
/// generator is fully deterministic once timings are scrubbed: simulator
/// runs are seed-pure, `recovery_exec` and `certify` are thread-count
/// invariant, and the compaction stream is generated from its seed alone.
fn fixtures() -> Vec<(&'static str, Json)> {
    vec![
        ("BENCH_rdtcheck", canonical_rdtcheck()),
        (
            "BENCH_incremental",
            scrub(&rdt_bench::incremental_vs_batch(&[200, 400], 2, 4).to_json()),
        ),
        (
            "BENCH_recovery_exec",
            // No wall-clock fields at all: rollback spans are simulated
            // ticks, so the artifact is pinned verbatim.
            rdt_bench::recovery_exec(4, &[1, 2], 200, 4.0, 2, 1).to_json(),
        ),
        (
            "BENCH_compaction",
            scrub(&rdt_bench::compaction_bench(4, 4_000, 2_000, 250, 7).to_json()),
        ),
        (
            "BENCH_sim_throughput",
            scrub(&rdt_bench::sim_throughput(200, 2).to_json()),
        ),
        ("BENCH_certify", {
            // Tiny scope plus one sampled push run: the counts, orbit
            // accounting, reuse ratio, and the sampled-run shape are all
            // deterministic; only the clocks are scrubbed.
            let sampled = rdt::Scope::with_basics(2, 2, 0).expect("in range");
            scrub(
                &rdt_bench::certify_scale(&rdt::Scope::tiny(), 1, &[(sampled, Some(0.5))])
                    .to_json(),
            )
        }),
        ("certify_report", certify_report(rdt::Scope::tiny(), 2)),
        // Captured from the retired layout-fan-out pipeline (PR 15), not
        // regenerated: with `certify_report` it pins counterexample
        // selection, order and note wording — the control's seven
        // `rdt-violation`s need three processes.
        ("certify_report_3_2_1", certify_report(scope_3_2_1(), 2)),
        ("lint_report", {
            // The `rdt-lint --json` shape: deterministic once the wall
            // time is scrubbed (sources are scanned in sorted order and
            // the workspace must lint clean, so the diagnostics array
            // is pinned empty — a regression shows up as fixture drift
            // *and* a failing workspace_clean test).
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
            let report = rdt_lint::run_lint(root).expect("lint run");
            scrub(&report.to_json(0))
        }),
    ]
}

fn scope_3_2_1() -> rdt::Scope {
    rdt::Scope::with_basics(3, 2, 1).expect("in range")
}

fn certify_report(scope: rdt::Scope, threads: usize) -> Json {
    let options = rdt::CertifyOptions {
        threads,
        ..rdt::CertifyOptions::default()
    };
    rdt::certify(&scope, &options).to_json()
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const MANIFEST_HEADER: &str = "\
# Golden-fixture manifest: FNV-1a checksums of the canonical artifact
# JSONs in this directory (timings replaced by placeholders). Regenerate
# with tests/golden/regen-golden.sh and review the diff.
";

#[test]
fn golden_fixtures_match() {
    let regen = std::env::var_os("RDT_REGEN_GOLDEN").is_some();
    let dir = std::path::Path::new(GOLDEN_DIR);
    let mut manifest = String::from(MANIFEST_HEADER);
    let mut failures = Vec::new();

    for (name, json) in fixtures() {
        let text = json.pretty();
        manifest.push_str(&format!("{name} {:016x}\n", fnv1a(&text)));
        let path = dir.join(format!("{name}.json"));
        if regen {
            std::fs::write(&path, &text).expect("write fixture");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(stored) if stored == text => {}
            Ok(_) => {
                // Leave the freshly generated form next to the fixture
                // (ignored by git) so the drift is a plain `diff` away.
                let actual = dir.join(format!("{name}.json.tmp"));
                let _ = std::fs::write(&actual, &text);
                failures.push(format!(
                    "{name}: canonical JSON drifted from tests/golden/{name}.json \
                     (actual written to {name}.json.tmp)"
                ));
            }
            Err(err) => failures.push(format!("{name}: {err}")),
        }
    }

    let manifest_path = dir.join("manifest.txt");
    if regen {
        std::fs::write(&manifest_path, &manifest).expect("write manifest");
        return;
    }
    match std::fs::read_to_string(&manifest_path) {
        Ok(stored) if stored == manifest => {}
        Ok(_) => failures.push("manifest.txt checksums drifted".to_string()),
        Err(err) => failures.push(format!("manifest.txt: {err}")),
    }

    assert!(
        failures.is_empty(),
        "golden fixtures drifted — if the change is intentional, run \
         tests/golden/regen-golden.sh and review the diff:\n  {}",
        failures.join("\n  ")
    );
}

/// `golden_fixtures_match` holds the `3,2,1` report at two threads; the
/// differential this fixture replaced ran at one and three.
#[test]
fn certify_report_3_2_1_is_thread_count_independent() {
    let path = std::path::Path::new(GOLDEN_DIR).join("certify_report_3_2_1.json");
    let stored = std::fs::read_to_string(path).expect("read fixture");
    for threads in [1, 3] {
        let text = certify_report(scope_3_2_1(), threads).pretty();
        assert_eq!(stored, text, "threads={threads}");
    }
}

#[test]
fn scrubbing_is_structure_preserving() {
    let json = Json::obj([
        ("events", Json::U64(7)),
        ("ns", Json::U64(123_456)),
        (
            "rows",
            Json::Arr(vec![Json::obj([
                ("speedup", Json::F64(3.5)),
                ("checkpoints", Json::U64(2)),
            ])]),
        ),
    ]);
    let scrubbed = scrub(&json);
    assert_eq!(scrubbed.get("events"), Some(&Json::U64(7)));
    assert_eq!(
        scrubbed.get("ns").and_then(Json::as_str),
        Some(TIMING_PLACEHOLDER)
    );
    let rows = scrubbed.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows[0].get("checkpoints"), Some(&Json::U64(2)));
    assert_eq!(
        rows[0].get("speedup").and_then(Json::as_str),
        Some(TIMING_PLACEHOLDER)
    );
}
