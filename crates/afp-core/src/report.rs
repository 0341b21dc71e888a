//! Experiment reporting: the row/series structures of Table I and Table II and
//! their plain-text rendering.

use crate::stats::Summary;

/// Repeated measurements of one (circuit, method) pair — the four metrics of
/// Table I.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MethodMeasurements {
    /// Optimization / inference runtimes in seconds.
    pub runtime_s: Vec<f64>,
    /// Dead-space percentages.
    pub dead_space_pct: Vec<f64>,
    /// HPWL values in µm.
    pub hpwl_um: Vec<f64>,
    /// Episode rewards (Eq. 5).
    pub reward: Vec<f64>,
}

impl MethodMeasurements {
    /// Creates an empty measurement set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one run.
    pub fn push(&mut self, runtime_s: f64, dead_space_pct: f64, hpwl_um: f64, reward: f64) {
        self.runtime_s.push(runtime_s);
        self.dead_space_pct.push(dead_space_pct);
        self.hpwl_um.push(hpwl_um);
        self.reward.push(reward);
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.reward.len()
    }

    /// Returns `true` when no runs are recorded.
    pub fn is_empty(&self) -> bool {
        self.reward.is_empty()
    }

    /// Interquartile-mean ± std summaries of the four metrics.
    pub fn summarize(&self) -> MethodSummary {
        MethodSummary {
            runtime_s: Summary::of(&self.runtime_s),
            dead_space_pct: Summary::of(&self.dead_space_pct),
            hpwl_um: Summary::of(&self.hpwl_um),
            reward: Summary::of(&self.reward),
        }
    }
}

/// Summarized metrics of one (circuit, method) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSummary {
    /// Runtime in seconds.
    pub runtime_s: Summary,
    /// Dead space in percent.
    pub dead_space_pct: Summary,
    /// HPWL in µm.
    pub hpwl_um: Summary,
    /// Episode reward.
    pub reward: Summary,
}

/// One row group of Table I: a circuit with the summaries of every method.
#[derive(Debug, Clone)]
pub struct TableOneRow {
    /// Circuit name.
    pub circuit: String,
    /// Number of functional structures (the "# Struct." column).
    pub num_structures: usize,
    /// `true` for the grey rows (circuits unseen during training).
    pub unseen: bool,
    /// Per-method summaries, in column order.
    pub methods: Vec<(String, MethodSummary)>,
}

impl TableOneRow {
    /// The method with the best (highest) reward in this row; a NaN reward
    /// is never the best.
    pub fn best_method(&self) -> Option<&str> {
        self.methods
            .iter()
            .filter(|(_, m)| !m.reward.iq_mean.is_nan())
            .max_by(|a, b| a.1.reward.iq_mean.total_cmp(&b.1.reward.iq_mean))
            .map(|(name, _)| name.as_str())
    }
}

/// Renders Table I as plain text (one block of four metric lines per circuit,
/// mirroring the paper's layout).
pub fn format_table_one(rows: &[TableOneRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "TABLE I — Comparative analysis of the R-GCN+RL method versus previous techniques\n",
    );
    for row in rows {
        out.push_str(&format!(
            "\nCircuit {} ({} structures){}\n",
            row.circuit,
            row.num_structures,
            if row.unseen { " [unseen]" } else { "" }
        ));
        let header: Vec<String> = row.methods.iter().map(|(n, _)| format!("{n:>16}")).collect();
        out.push_str(&format!("  {:<16}{}\n", "Metric", header.join("")));
        let metric_line = |label: &str, pick: &dyn Fn(&MethodSummary) -> Summary| {
            let cells: Vec<String> = row
                .methods
                .iter()
                .map(|(_, s)| format!("{:>16}", pick(s).to_string()))
                .collect();
            format!("  {:<16}{}\n", label, cells.join(""))
        };
        out.push_str(&metric_line("Runtime (s)", &|s| s.runtime_s));
        out.push_str(&metric_line("Dead space (%)", &|s| s.dead_space_pct));
        out.push_str(&metric_line("HPWL (um)", &|s| s.hpwl_um));
        out.push_str(&metric_line("Reward", &|s| s.reward));
        if let Some(best) = row.best_method() {
            out.push_str(&format!("  best reward: {best}\n"));
        }
    }
    out
}

/// The paper's recorded manual-design reference values for Table II
/// (area µm², dead space %, total layout time in hours). These are constants
/// of the original testbed and are reproduced here so the comparison can be
/// reported side by side with our measured automated flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManualReference {
    /// Manual layout area in µm².
    pub area_um2: f64,
    /// Manual layout dead space in percent.
    pub dead_space_pct: f64,
    /// Manual layout time in hours.
    pub layout_time_h: f64,
}

/// Manual references from the paper's Table II, keyed by circuit family name.
pub fn paper_manual_references() -> Vec<(&'static str, ManualReference)> {
    vec![
        (
            "OTA",
            ManualReference {
                area_um2: 266.0,
                dead_space_pct: 31.92,
                layout_time_h: 8.0,
            },
        ),
        (
            "Bias-1",
            ManualReference {
                area_um2: 247.1,
                dead_space_pct: 49.32,
                layout_time_h: 8.0,
            },
        ),
        (
            "Driver",
            ManualReference {
                area_um2: 3674.0,
                dead_space_pct: 40.32,
                layout_time_h: 32.0,
            },
        ),
    ]
}

/// One row of Table II: our automated flow versus the manual reference.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTwoRow {
    /// Circuit name.
    pub circuit: String,
    /// Automated-flow layout area in µm².
    pub ours_area_um2: f64,
    /// Automated-flow dead space in percent.
    pub ours_dead_space_pct: f64,
    /// Automated-flow template generation time in seconds.
    pub template_time_s: f64,
    /// Assumed manual-improvement time in hours (the paper reports the manual
    /// touch-up spent after template generation).
    pub manual_improvement_h: f64,
    /// Manual reference values.
    pub manual: ManualReference,
}

impl TableTwoRow {
    /// Total automated layout generation time in hours.
    pub fn total_time_h(&self) -> f64 {
        self.template_time_s / 3600.0 + self.manual_improvement_h
    }

    /// Relative area change versus the manual layout (negative = smaller).
    pub fn area_delta_pct(&self) -> f64 {
        100.0 * (self.ours_area_um2 - self.manual.area_um2) / self.manual.area_um2
    }

    /// Relative layout-time change versus the manual layout.
    pub fn time_delta_pct(&self) -> f64 {
        100.0 * (self.total_time_h() - self.manual.layout_time_h) / self.manual.layout_time_h
    }
}

/// Renders Table II as plain text.
pub fn format_table_two(rows: &[TableTwoRow]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II — Automated flow versus manual design\n");
    out.push_str(&format!(
        "{:<10}{:>10}{:>14}{:>14}{:>16}{:>16}{:>14}\n",
        "Circuit", "Method", "Area (um2)", "Dead space %", "Template (s)", "Total time (h)", "Δarea %"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10}{:>10}{:>14.1}{:>14.2}{:>16.3}{:>16.2}{:>14.1}\n",
            row.circuit,
            "Ours",
            row.ours_area_um2,
            row.ours_dead_space_pct,
            row.template_time_s,
            row.total_time_h(),
            row.area_delta_pct()
        ));
        out.push_str(&format!(
            "{:<10}{:>10}{:>14.1}{:>14.2}{:>16}{:>16.2}{:>14}\n",
            "",
            "Manual",
            row.manual.area_um2,
            row.manual.dead_space_pct,
            "-",
            row.manual.layout_time_h,
            "-"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(reward: f64) -> MethodSummary {
        MethodSummary {
            runtime_s: Summary::of(&[1.0]),
            dead_space_pct: Summary::of(&[50.0]),
            hpwl_um: Summary::of(&[100.0]),
            reward: Summary::of(&[reward]),
        }
    }

    #[test]
    fn measurements_accumulate_and_summarize() {
        let mut m = MethodMeasurements::new();
        m.push(1.0, 50.0, 100.0, -2.0);
        m.push(2.0, 40.0, 120.0, -1.0);
        assert_eq!(m.len(), 2);
        let s = m.summarize();
        assert!((s.runtime_s.iq_mean - 1.5).abs() < 1e-9);
        assert!((s.reward.iq_mean + 1.5).abs() < 1e-9);
    }

    #[test]
    fn best_method_picks_highest_reward() {
        let row = TableOneRow {
            circuit: "OTA-1".into(),
            num_structures: 5,
            unseen: false,
            methods: vec![
                ("SA".into(), summary(-2.0)),
                ("Ours".into(), summary(-0.5)),
                ("GA".into(), summary(-3.0)),
                ("PSO".into(), summary(f64::NAN)),
            ],
        };
        assert_eq!(row.best_method(), Some("Ours"));
    }

    #[test]
    fn table_one_rendering_contains_all_methods() {
        let row = TableOneRow {
            circuit: "OTA-2".into(),
            num_structures: 8,
            unseen: true,
            methods: vec![("SA".into(), summary(-2.0)), ("Ours".into(), summary(-1.0))],
        };
        let text = format_table_one(&[row]);
        assert!(text.contains("OTA-2"));
        assert!(text.contains("[unseen]"));
        assert!(text.contains("SA"));
        assert!(text.contains("Ours"));
        assert!(text.contains("HPWL"));
    }

    #[test]
    fn manual_references_match_paper_values() {
        let refs = paper_manual_references();
        assert_eq!(refs.len(), 3);
        let driver = refs.iter().find(|(n, _)| *n == "Driver").unwrap().1;
        assert_eq!(driver.layout_time_h, 32.0);
        assert_eq!(driver.area_um2, 3674.0);
    }

    #[test]
    fn table_two_deltas() {
        let row = TableTwoRow {
            circuit: "OTA".into(),
            ours_area_um2: 228.6,
            ours_dead_space_pct: 30.01,
            template_time_s: 111.0,
            manual_improvement_h: 0.17,
            manual: paper_manual_references()[0].1,
        };
        assert!(row.area_delta_pct() < 0.0);
        assert!(row.total_time_h() < row.manual.layout_time_h);
        let text = format_table_two(&[row]);
        assert!(text.contains("Ours"));
        assert!(text.contains("Manual"));
    }
}
