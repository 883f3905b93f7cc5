//! Design-space exploration — the sweep machinery behind Figs. 3 and 4.

use crate::{Rpu, RpuError};
use rpu_codegen::{CodegenStyle, Direction, NttSpec};
use rpu_model::{AreaModel, DesignPoint};
use rpu_sim::{CycleSim, RpuConfig};

/// The HPLE counts the paper sweeps.
pub const PAPER_HPLES: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

/// The VDM bank counts the paper sweeps.
pub const PAPER_BANKS: [usize; 4] = [32, 64, 128, 256];

/// Sweeps (HPLEs × banks) for an `n`-point NTT, returning one evaluated
/// [`DesignPoint`] per configuration — Fig. 3's scatter. The kernel is
/// fetched once from an [`Rpu`]'s kernel store, which golden-verifies
/// it, and re-timed per configuration, exactly as the paper's
/// simulator-based exploration does.
///
/// # Errors
///
/// Returns [`RpuError::Config`] for an empty sweep grid (an empty axis
/// would silently produce zero points, and every consumer that then
/// picks a best/fastest point would panic), or [`RpuError`] if kernel
/// generation fails.
pub fn explore_design_space(
    n: usize,
    hples: &[usize],
    banks: &[usize],
) -> Result<Vec<DesignPoint>, RpuError> {
    if hples.is_empty() || banks.is_empty() {
        return Err(RpuError::Config(format!(
            "design-space sweep needs at least one HPLE count and one bank count \
             (got {} and {})",
            hples.len(),
            banks.len()
        )));
    }
    let q = rpu_arith::find_ntt_prime_u128(126, 2 * n as u128)
        .ok_or(RpuError::NoPrime { degree: n })?;
    let spec = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized);
    let kernel = Rpu::builder().build()?.session().compile(&spec)?;
    let area_model = AreaModel::default();
    let mut points = Vec::with_capacity(hples.len() * banks.len());
    for &h in hples {
        for &b in banks {
            let config = RpuConfig::with_geometry(h, b);
            let sim = CycleSim::new(config).map_err(RpuError::Config)?;
            let stats = sim.simulate(kernel.program());
            points.push(DesignPoint {
                hples: h,
                banks: b,
                runtime_us: config.cycles_to_us(stats.cycles),
                area_mm2: area_model.total_mm2(h, b),
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_model::{best_perf_per_area, pareto_frontier};

    #[test]
    fn small_sweep_shapes() {
        // a reduced sweep keeps the test fast while checking the trends
        let pts = explore_design_space(4096, &[4, 64, 128], &[32, 128]).unwrap();
        assert_eq!(pts.len(), 6);
        let get = |h, b| {
            *pts.iter()
                .find(|p| p.hples == h && p.banks == b)
                .expect("point exists")
        };
        // more HPLEs at fixed banks -> faster and bigger
        assert!(get(128, 128).runtime_us < get(4, 128).runtime_us);
        assert!(get(128, 128).area_mm2 > get(4, 128).area_mm2);
        // the Pareto frontier is non-empty and excludes dominated points
        let f = pareto_frontier(&pts);
        assert!(!f.is_empty());
        assert!(f.len() < pts.len());
    }

    #[test]
    fn empty_sweep_axes_are_a_config_error_not_a_panic() {
        for (h, b) in [
            (&[][..], &[32][..]),
            (&[4][..], &[][..]),
            (&[][..], &[][..]),
        ] {
            match explore_design_space(4096, h, b) {
                Err(RpuError::Config(msg)) => {
                    assert!(msg.contains("at least one"), "msg: {msg}");
                }
                other => panic!("expected Config error for empty grid, got {other:?}"),
            }
        }
    }

    #[test]
    fn best_ppa_is_balanced() {
        let pts = explore_design_space(4096, &[32, 64, 128, 256], &[32, 64, 128, 256]).unwrap();
        let best = best_perf_per_area(&pts).unwrap();
        // the paper finds (128,128) best and (64,64) second; accept any
        // balanced mid-range design here since n also matters
        assert!(best.hples >= 64, "best point {best:?}");
        assert!(best.hples <= 2 * best.banks && best.banks <= 2 * best.hples);
    }
}
