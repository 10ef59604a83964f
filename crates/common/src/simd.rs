//! Runtime dispatch for the workspace's AVX2 kernels: one CPU probe, and
//! one latched environment override per kernel family.

use std::sync::OnceLock;

/// Whether the host reports AVX2. std caches the CPUID probe, and this
/// inlines into each kernel's check.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A kernel family's dispatch. The AVX2 path runs only when, in this
/// order, the family's config knob allows it, its environment variable
/// (such as `VELOPT_DP_SIMD`) does not force the portable kernels, and the
/// host reports AVX2. The variable forces them when set to `0`, `off`,
/// `scalar` or `false` (any case, surrounding whitespace ignored). It is
/// read once and latched for the process: it exists so CI can pin a whole
/// test process's dispatch, not to be toggled mid-run.
#[derive(Debug)]
pub struct Dispatch {
    var: &'static str,
    forced: OnceLock<bool>,
}

impl Dispatch {
    /// The dispatch of a family whose override is the variable `var`.
    pub const fn new(var: &'static str) -> Self {
        Self {
            var,
            forced: OnceLock::new(),
        }
    }

    /// Whether to attempt the AVX2 kernels, given the config knob.
    pub fn simd(&self, config_simd: bool) -> bool {
        config_simd
            && !*self.forced.get_or_init(|| {
                std::env::var(self.var).is_ok_and(|v| {
                    matches!(
                        v.trim().to_ascii_lowercase().as_str(),
                        "0" | "off" | "scalar" | "false"
                    )
                })
            })
            && avx2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_override_is_read_after_the_knob_and_latched() {
        const VAR: &str = "VELOPT_COMMON_SIMD_TEST";
        std::env::set_var(VAR, " Off ");
        let forced = Dispatch::new(VAR);
        assert!(!forced.simd(true));
        std::env::set_var(VAR, "on");
        assert!(!forced.simd(true), "the first reading holds");
        let knob_first = Dispatch::new(VAR);
        assert!(!knob_first.simd(false));
        std::env::set_var(VAR, "FALSE");
        assert!(!knob_first.simd(true), "an off knob reads no variable");
        assert_eq!(Dispatch::new("VELOPT_COMMON_SIMD_UNSET").simd(true), avx2());
    }
}
