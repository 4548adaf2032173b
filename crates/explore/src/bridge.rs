//! Bridges offline exploration results into the runtime's application catalog.
//!
//! The DSE-to-runtime path of the paper: explore a kernel offline
//! ([`crate::explore_kernel`]), then swap the measured variant list into a calibrated
//! [`Catalog`] so the scenario engine runs co-locations against what was actually
//! measured rather than the paper-calibrated defaults.

use pliant_approx::catalog::{AppId, Catalog, VariantProfile};

/// Returns a catalog identical to `base` except that `app`'s variant list is replaced
/// with `variants` (ordered from closest-to-precise to most aggressive).
///
/// With an exploration's selected near-pareto set, this is the DSE-to-runtime bridge:
///
/// ```
/// use pliant_approx::catalog::{AppId, Catalog};
/// use pliant_approx::kernels::kernel_for;
/// use pliant_explore::{bridge, explore_kernel, ExplorationConfig};
///
/// let kernel = kernel_for(AppId::KMeans, 7);
/// let result = explore_kernel(kernel.as_ref(), &ExplorationConfig::default());
/// let variants = result.selected_variants();
/// let catalog = bridge::catalog_with_variants(&Catalog::default(), AppId::KMeans, variants);
/// assert_eq!(
///     catalog.profile(AppId::KMeans).unwrap().variant_count(),
///     result.selected_count()
/// );
/// ```
///
/// # Panics
///
/// Panics if `base` has no profile for `app`.
pub fn catalog_with_variants(base: &Catalog, app: AppId, variants: Vec<VariantProfile>) -> Catalog {
    assert!(
        base.profile(app).is_some(),
        "catalog has no profile for {app}, cannot bridge variants into it"
    );
    Catalog::from_profiles(
        base.profiles()
            .iter()
            .map(|p| {
                if p.id == app {
                    p.clone().with_variants(variants.clone())
                } else {
                    p.clone()
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{explore_kernel, ExplorationConfig};
    use pliant_approx::kernels::kernel_for;

    #[test]
    fn bridged_catalog_swaps_only_the_target_app() {
        let base = Catalog::default();
        let kernel = kernel_for(AppId::Fasta, 5);
        let result = explore_kernel(kernel.as_ref(), &ExplorationConfig::default());
        let bridged = catalog_with_variants(&base, AppId::Fasta, result.selected_variants());
        assert_eq!(
            bridged.profile(AppId::Fasta).unwrap().variant_count(),
            result.selected_count()
        );
        for app in AppId::all() {
            if app != AppId::Fasta {
                assert_eq!(
                    bridged.profile(app).unwrap(),
                    base.profile(app).unwrap(),
                    "{app} must be untouched"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot bridge")]
    fn bridging_into_an_empty_catalog_panics() {
        let empty = Catalog::from_profiles(Vec::new());
        catalog_with_variants(&empty, AppId::KMeans, Vec::new());
    }
}
