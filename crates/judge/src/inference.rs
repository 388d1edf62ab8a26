//! Inference cost model.
//!
//! The paper's judge stage runs a 33-billion-parameter model on an A100;
//! judging a file is orders of magnitude slower than compiling or running
//! it, which is precisely why the validation pipeline front-loads the cheap
//! stages. The pipeline's throughput benchmarks use this model to account
//! simulated judge latency without actually sleeping.

/// Latency model for one LLM inference call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferenceCostModel {
    /// Fixed overhead per request (scheduling, tokenization) in ms.
    pub base_ms: f64,
    /// Prompt-processing (prefill) cost per prompt token in ms.
    pub prompt_ms_per_token: f64,
    /// Generation (decode) cost per output token in ms.
    pub output_ms_per_token: f64,
}

impl InferenceCostModel {
    /// Rough figures for deepseek-coder-33B-instruct on a single A100-80GB
    /// (fp16, no tensor parallelism): prefill ~2000 tok/s, decode ~35 tok/s.
    pub fn deepseek_33b_a100() -> Self {
        Self {
            base_ms: 120.0,
            prompt_ms_per_token: 0.5,
            output_ms_per_token: 28.0,
        }
    }

    /// Estimated latency in milliseconds for one call.
    pub fn latency_ms(&self, prompt_tokens: usize, output_tokens: usize) -> f64 {
        self.base_ms
            + self.prompt_ms_per_token * prompt_tokens as f64
            + self.output_ms_per_token * output_tokens as f64
    }
}

impl Default for InferenceCostModel {
    fn default() -> Self {
        Self::deepseek_33b_a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_tokens() {
        let model = InferenceCostModel::deepseek_33b_a100();
        let short = model.latency_ms(100, 50);
        let long = model.latency_ms(2000, 400);
        assert!(long > short);
        assert!(short > model.base_ms);
    }

    #[test]
    fn decode_dominates_prefill() {
        let model = InferenceCostModel::default();
        // 300 output tokens should cost far more than 3000 prompt tokens.
        assert!(model.output_ms_per_token * 300.0 > model.prompt_ms_per_token * 3000.0);
    }
}
