//! `benchmark compare <set-A files…> -- <set-B files…>`: the verdict on
//! two sets of `--out` records, one row per workload × end-to-end
//! metric. A is the base; every ratio is B ÷ A with A's median beside it.

use crate::catalog;
use crate::json::{self, Json};
use crate::stats::{median, p75_resolved, quartile_spread};
use std::collections::BTreeMap;

/// Calibration drift between the sets beyond which a cu row is
/// unresolved: the two sets did not see the same host.
const MAX_CALIB_DRIFT: f64 = 0.10;

/// What `compare` needs from one run record.
struct Run {
    metrics: BTreeMap<String, f64>,
    failed_share: f64,
    calib_s_p50: f64,
    iterations: usize,
}

type Sets = BTreeMap<String, Vec<Run>>;

fn load(path: &str, sets: &mut Sets) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("{path}: no {k:?}"));
    let num = |k: &str| {
        field(k)?
            .as_f64()
            .ok_or_else(|| format!("{path}: {k:?} is not a number"))
    };
    if field("traced")? == &Json::Bool(true) {
        return Err(format!(
            "{path}: a traced run carries no end-to-end metrics"
        ));
    }
    let metrics = field("metrics")?
        .as_obj()
        .ok_or_else(|| format!("{path}: metrics is not an object"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let calib: Vec<f64> = field("calib_s")?
        .as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let workload = field("workload")?
        .as_str()
        .ok_or_else(|| format!("{path}: workload is not a string"))?;
    sets.entry(workload.to_string()).or_default().push(Run {
        metrics,
        failed_share: num("failed")? / num("attempted")?,
        calib_s_p50: median(&calib),
        iterations: num("iterations")? as usize,
    });
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict on one lower-is-better metric: `a` and `b` are the per-run
/// values of each set; a row whose spread exceeds the bound in either
/// set cannot carry a claim.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, resolved: bool) -> Verdict {
    if !resolved || quartile_spread(a) > bound || quartile_spread(b) > bound {
        return Verdict::Unresolved;
    }
    let change = median(b) / median(a) - 1.0;
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Print the comparison. Returns the number of `worse` rows.
pub fn compare(a_files: &[String], b_files: &[String]) -> Result<usize, String> {
    let (mut a, mut b) = (Sets::new(), Sets::new());
    for f in a_files {
        load(f, &mut a)?;
    }
    for f in b_files {
        load(f, &mut b)?;
    }
    println!(
        "{:<17} {:<12} {:>5} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    );
    let mut worse = 0;
    for w in &catalog::WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        let calib = |runs: &[Run]| median(&runs.iter().map(|r| r.calib_s_p50).collect::<Vec<_>>());
        let drift = calib(rb) / calib(ra) - 1.0;
        let enough_tail = ra.iter().chain(rb).all(|r| p75_resolved(r.iterations));
        for d in catalog::end_to_end() {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&d.name).copied())
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let is_cu = d.unit == "cu";
            let resolved = !(is_cu && drift.abs() > MAX_CALIB_DRIFT)
                && (d.name != "iter_cu_p75" || enough_tail);
            let v = verdict(&va, &vb, bound, resolved);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<17} {:<12} {:>2}/{:<2} {:>12.5} {:>12.5} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
                w.name,
                d.name,
                va.len(),
                vb.len(),
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                quartile_spread(&va),
                quartile_spread(&vb),
                bound,
                v.as_str()
            );
        }
        let share = |runs: &[Run]| runs.iter().map(|r| r.failed_share).fold(0.0, f64::max);
        let (fa, fb) = (share(ra), share(rb));
        let v = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        };
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{:<17} {:<12} {:>2}/{:<2} {fa:>12.5} {fb:>12.5} {:>8} {:>8} {:>8} {:>6}  {}",
            w.name,
            "failed_share",
            ra.len(),
            rb.len(),
            "-",
            "-",
            "-",
            "any",
            v.as_str()
        );
        println!(
            "{:<17} calibration median A {:.5} s, B {:.5} s, drift {:+.2} %{}",
            w.name,
            calib(ra),
            calib(rb),
            drift * 100.0,
            if drift.abs() > MAX_CALIB_DRIFT {
                " (over 10 %: cu rows unresolved)"
            } else {
                ""
            }
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let scale = |k: f64| a.iter().map(|v| v * k).collect::<Vec<_>>();
        assert_eq!(verdict(&a, &scale(1.05), 0.10, true), Verdict::WithinBound);
        assert_eq!(verdict(&a, &scale(1.12), 0.10, true), Verdict::Worse);
        assert_eq!(verdict(&a, &scale(0.85), 0.10, true), Verdict::Better);
        assert_eq!(verdict(&a, &scale(1.12), 0.10, false), Verdict::Unresolved);
        // A spread wider than the bound cannot carry a claim.
        let noisy = [0.8, 1.0, 1.3, 0.7, 1.2];
        assert_eq!(verdict(&a, &noisy, 0.10, true), Verdict::Unresolved);
    }
}
