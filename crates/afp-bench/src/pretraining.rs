//! Reproduction of the R-GCN supervised pre-training stage (paper §IV-C,
//! Fig. 3): dataset generation, reward regression and the resulting encoder.

use afp_gnn::{pretrain_with_labeler, PretrainConfig, PretrainResult};
use afp_metaheuristics::{simulated_annealing, SaConfig};

use crate::ExperimentScale;

/// Summary of a pre-training run.
#[derive(Debug)]
pub struct PretrainSummary {
    /// The underlying result (trained model and loss curves).
    pub result: PretrainResult,
    /// Plain-text report.
    pub rendered: String,
}

/// Labels a circuit with the reward of an SA-optimized floorplan — the same
/// kind of metaheuristic labelling the paper's 21 600-sample dataset uses.
pub fn sa_reward_label(circuit: &afp_circuit::Circuit) -> f64 {
    let result = simulated_annealing(
        circuit,
        &SaConfig {
            iterations: 600,
            ..SaConfig::small()
        },
    );
    result.reward
}

/// Runs the pre-training reproduction.
///
/// Quick scale uses the greedy labeller and a small dataset; paper scale uses
/// SA labelling and the full 21 600-sample dataset.
pub fn run(scale: ExperimentScale) -> PretrainSummary {
    let (config, use_sa): (PretrainConfig, bool) = match scale {
        ExperimentScale::Quick => (
            PretrainConfig {
                samples: 32,
                epochs: 6,
                ..PretrainConfig::small()
            },
            false,
        ),
        ExperimentScale::Paper => (PretrainConfig::paper(), true),
    };
    let result = if use_sa {
        pretrain_with_labeler(&config, &sa_reward_label)
    } else {
        afp_gnn::pretrain(&config)
    };
    let mut rendered = String::new();
    rendered.push_str("R-GCN reward-prediction pre-training (paper §IV-C)\n");
    rendered.push_str(&format!(
        "dataset: {} train / {} validation samples\n",
        result.train_size, result.validation_size
    ));
    rendered.push_str("epoch  train MSE  validation MSE\n");
    for (i, (t, v)) in result
        .train_losses
        .iter()
        .zip(result.validation_losses.iter())
        .enumerate()
    {
        rendered.push_str(&format!("{i:>5}  {t:>9.4}  {v:>14.4}\n"));
    }
    rendered.push_str(&format!(
        "final validation MSE: {:.4}\n",
        result.final_validation_mse()
    ));
    PretrainSummary { result, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pretraining_learns_something() {
        let summary = run(ExperimentScale::Quick);
        assert!(summary.rendered.contains("validation MSE"));
        let first = summary.result.train_losses.first().copied().unwrap();
        let last = summary.result.train_losses.last().copied().unwrap();
        assert!(last <= first, "training loss increased: {first} → {last}");
    }

    #[test]
    fn sa_labeller_produces_plausible_rewards() {
        let reward = sa_reward_label(&afp_circuit::generators::ota3());
        assert!(reward < 0.0 && reward > -50.0, "SA label {reward}");
    }
}
