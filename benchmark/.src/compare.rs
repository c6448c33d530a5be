//! `serve-bench compare A.json B.json`: is B no worse than A?
//!
//! One row per end-to-end metric × workload: the relative worsening of B
//! against A, signed so that positive is worse, against the metric's
//! bound in `BENCHMARK.json`. Exits non-zero when a row is out of bounds
//! or when more operations failed in B than in A.

use rdt_json::Json;

fn load(path: &str) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn compare_main(args: &[String]) -> Result<bool, String> {
    let (paths, bounds_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, bounds] if flag == "--bounds" => ([a, b], bounds.as_str()),
        _ => {
            return Err(
                "usage: serve-bench compare A.json B.json [--bounds BENCHMARK.json]".to_string(),
            )
        }
    };
    let (a, b) = (load(paths[0])?, load(paths[1])?);
    let bench = load(bounds_path)?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{bounds_path}: no `end_to_end` array"))?;
    let names = bench
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{bounds_path}: no `workloads` array"))?;

    let mut ok = true;
    for (set, path) in [(&a, paths[0]), (&b, paths[1])] {
        if set.get("meta").and_then(|m| m.get("comparable")) != Some(&Json::Bool(true)) {
            println!("{path} is a --quick set: too short to compare");
            ok = false;
        }
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for workload in names.iter().filter_map(|w| w.get("name")?.as_str()) {
        let side = |set: &Json| -> Result<Json, String> {
            set.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .cloned()
                .ok_or_else(|| format!("a set has no end-to-end result for {workload}"))
        };
        let (ra, rb) = (side(&a)?, side(&b)?);
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let better = m.get("better").and_then(Json::as_str).unwrap_or("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|ms| ms.get(name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}: a set has no `{name}`"))
            };
            let (va, vb) = (value(&ra)?, value(&rb)?);
            let worse = worsening(va, vb, better);
            let verdict = if worse > bound { "OUT OF BOUNDS" } else { "" };
            ok &= worse <= bound;
            println!(
                "{workload:<14} {name:<22} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}% {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX);
        let (fa, fb) = (failed(&ra), failed(&rb));
        let verdict = if fb > fa { "ROSE" } else { "" };
        ok &= fb <= fa;
        println!(
            "{workload:<14} {:<22} {fa:>14} {fb:>14} {verdict}",
            "failed"
        );
    }
    println!(
        "{}",
        if ok {
            "within bounds"
        } else {
            "NOT within bounds"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
    }
}
