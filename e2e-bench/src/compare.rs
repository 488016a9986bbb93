//! `amgen-bench compare`: judges a change against its parent from two
//! directories of saved runs.
//!
//! Each directory holds the standard output of untraced runs, one or
//! more per file; files are read in name order, and the i-th run of a
//! workload in one directory pairs with the i-th in the other, so run
//! the two sides alternately. Every run on both sides must have the
//! same window (`seconds`), or nothing is compared. A named claim must
//! pass the gain rule: at least 10 pairs, the change better in at least
//! 9 of 10, and the medians further apart than the parent's
//! interquartile range. Every other metric and workload is held to its
//! bound from BENCHMARK.json; where the spread between runs exceeds the
//! bound the result is "unresolved", unless every change run beats
//! every parent run.

use std::collections::BTreeMap;
use std::path::Path;

use amgen::serve::json::{self, Json};

use crate::stats::{iqr, median, relative_spread};

/// Pairs a gain claim needs.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric's contract from BENCHMARK.json.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// A judgement on one metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within its bound.
    Ok,
    /// Worse than the parent by more than its bound.
    Regressed,
    /// The spread between runs exceeds the bound; no conclusion.
    Unresolved,
    /// Spread too wide to bound, but every change run beats every
    /// parent run.
    Better,
    /// A claim that passed the gain rule.
    Gain,
    /// A claim that did not; the reason.
    NotMet(String),
    /// Runs missing on one side.
    NoData,
}

impl Verdict {
    fn fails(&self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::NotMet(_) | Verdict::NoData
        )
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Ok => f.write_str("ok"),
            Verdict::Regressed => f.write_str("REGRESSED"),
            Verdict::Unresolved => f.write_str("unresolved"),
            Verdict::Better => f.write_str("better"),
            Verdict::Gain => f.write_str("GAIN"),
            Verdict::NotMet(why) => write!(f, "claim not met ({why})"),
            Verdict::NoData => f.write_str("no data"),
        }
    }
}

fn better(a: f64, b: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        a < b
    } else {
        a > b
    }
}

/// Holds `change` to `bound` against `parent`.
pub fn judge_bound(parent: &[f64], change: &[f64], b: &Bound) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::NoData;
    }
    let (pm, cm) = (median(parent), median(change));
    let worse = if b.lower_is_better { cm - pm } else { pm - cm } / pm.abs();
    let spread = relative_spread(parent)
        .unwrap_or(0.0)
        .max(relative_spread(change).unwrap_or(0.0));
    if spread > b.bound {
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| better(c, p, b.lower_is_better)));
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > b.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Applies the gain rule to paired runs (`parent[i]` with `change[i]`).
pub fn judge_claim(parent: &[f64], change: &[f64], lower_is_better: bool) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::NotMet(format!("{pairs} pairs, {MIN_PAIRS} needed"));
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p, lower_is_better))
        .count();
    if wins * 10 < pairs * 9 {
        return Verdict::NotMet(format!("won {wins} of {pairs} pairs"));
    }
    let (pm, cm) = (median(parent), median(change));
    let spread = iqr(parent).unwrap_or(f64::INFINITY);
    if !better(cm, pm, lower_is_better) || (cm - pm).abs() <= spread {
        return Verdict::NotMet(format!(
            "median gap {:.4} not beyond the parent's IQR {spread:.4}",
            (cm - pm).abs()
        ));
    }
    Verdict::Gain
}

/// Reads the `end_to_end` contract of a BENCHMARK.json.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no `end_to_end` list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("`name` not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_num().ok_or("`bound` not a number")?,
            })
        })
        .collect()
}

/// Workload → metric → one value per run, in file-name order.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The untraced runs of one directory, all measured over one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    /// The measured window of every run, seconds; `None` without runs.
    pub seconds: Option<f64>,
    /// The metric values.
    pub runs: Runs,
}

/// Reads every untraced run report in `dir`. Runs of different window
/// lengths are an error: they do not measure the same thing.
pub fn load_runs(dir: &Path) -> Result<RunSet, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut set = RunSet::default();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for doc in text.lines().filter_map(|l| json::parse(l).ok()) {
            let (Some(workload), Some(Json::Obj(metrics))) = (
                doc.get("workload").and_then(Json::as_str),
                doc.get("metrics"),
            ) else {
                continue;
            };
            if doc.get("traced").and_then(Json::as_bool) != Some(false) {
                continue;
            }
            let seconds = doc
                .get("seconds")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{}: a run without `seconds`", file.display()))?;
            match set.seconds {
                Some(s) if s != seconds => {
                    return Err(format!(
                        "{}: a {seconds} s run among {s} s runs",
                        file.display()
                    ))
                }
                _ => set.seconds = Some(seconds),
            }
            let entry = set.runs.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_num) {
                    entry.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(set)
}

/// A claimed gain: this metric on this workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
}

/// Compares the two run sets; returns the report table and whether the
/// change passes (no regression, no unmet claim). Sets measured over
/// different windows are not compared.
pub fn compare(
    bounds: &[Bound],
    parent: &RunSet,
    change: &RunSet,
    claim: Option<&Claim>,
) -> Result<(String, bool), String> {
    if let (Some(p), Some(c)) = (parent.seconds, change.seconds) {
        if p != c {
            return Err(format!("parent runs last {p} s, change runs {c} s"));
        }
    }
    let (parent, change) = (&parent.runs, &change.runs);
    let mut out = String::new();
    let mut pass = true;
    let workloads: std::collections::BTreeSet<&String> =
        parent.keys().chain(change.keys()).collect();
    for workload in workloads {
        out.push_str(workload);
        for b in bounds {
            let values = |runs: &Runs| {
                runs.get(workload)
                    .and_then(|m| m.get(&b.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (p, c) = (values(parent), values(change));
            let claimed = claim.is_some_and(|cl| &cl.workload == workload && cl.metric == b.name);
            let verdict = if claimed {
                judge_claim(&p, &c, b.lower_is_better)
            } else {
                judge_bound(&p, &c, b)
            };
            pass &= !verdict.fails();
            out.push_str(&format!(
                "  {}: {verdict} ({:.4} -> {:.4}, {} vs {} runs)",
                b.name,
                median(&p),
                median(&c),
                p.len(),
                c.len()
            ));
        }
        out.push('\n');
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn bounds_separate_noise_from_regressions() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.02, 9.98, 10.1, 10.0, 9.95];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let b = bound(true, 0.10);
        assert_eq!(judge_bound(&parent, &same, &b), Verdict::Ok);
        assert_eq!(judge_bound(&parent, &slower, &b), Verdict::Regressed);
        // For a higher-is-better metric the same move is a gain.
        assert_eq!(
            judge_bound(&parent, &slower, &bound(false, 0.10)),
            Verdict::Ok
        );
        let noisy = [5.0, 15.0, 8.0, 20.0, 10.0];
        assert_eq!(judge_bound(&parent, &noisy, &b), Verdict::Unresolved);
        let fast_noisy = [1.0, 3.0, 2.0, 6.0, 4.0];
        assert_eq!(judge_bound(&parent, &fast_noisy, &b), Verdict::Better);
        assert_eq!(judge_bound(&[], &same, &b), Verdict::NoData);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(judge_claim(&parent, &faster, true), Verdict::Gain);
        assert!(matches!(
            judge_claim(&parent[..9], &faster[..9], true),
            Verdict::NotMet(_)
        ));
        let mut two_losses = faster.clone();
        two_losses[0] = 20.0;
        two_losses[1] = 20.0;
        assert!(matches!(
            judge_claim(&parent, &two_losses, true),
            Verdict::NotMet(_)
        ));
        let barely: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert!(matches!(
            judge_claim(&parent, &barely, true),
            Verdict::NotMet(_)
        ));
    }

    fn run_set(v: f64, seconds: f64) -> RunSet {
        let mut runs = Runs::new();
        for w in ["a", "b"] {
            runs.entry(w.to_string())
                .or_default()
                .insert("m".to_string(), vec![v, v * 1.01, v * 0.99]);
        }
        RunSet {
            seconds: Some(seconds),
            runs,
        }
    }

    #[test]
    fn compare_reports_one_row_per_workload() {
        let b = [bound(true, 0.1)];
        let (table, pass) = compare(&b, &run_set(10.0, 30.0), &run_set(10.2, 30.0), None).unwrap();
        assert!(pass, "{table}");
        assert_eq!(table.lines().count(), 2);
        let (table, pass) = compare(&b, &run_set(10.0, 30.0), &run_set(13.0, 30.0), None).unwrap();
        assert!(!pass);
        assert!(table.contains("REGRESSED"));
    }

    #[test]
    fn runs_of_different_lengths_are_not_compared() {
        let b = [bound(true, 0.1)];
        assert!(compare(&b, &run_set(10.0, 30.0), &run_set(10.0, 10.0), None).is_err());

        let dir = std::env::temp_dir().join(format!("amgen-bench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = |seconds: u32| {
            format!(
                r#"{{"metrics":{{"m":{{"value":1.5}}}},"seconds":{seconds},"traced":false,"workload":"a"}}"#
            )
        };
        std::fs::write(dir.join("1.out"), report(30)).unwrap();
        std::fs::write(dir.join("2.out"), report(30)).unwrap();
        let set = load_runs(&dir).unwrap();
        assert_eq!(set.seconds, Some(30.0));
        assert_eq!(set.runs["a"]["m"], vec![1.5, 1.5]);
        std::fs::write(dir.join("3.out"), report(10)).unwrap();
        let mixed = load_runs(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(mixed.is_err());
    }
}
