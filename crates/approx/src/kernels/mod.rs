//! Simplified but genuine Rust implementations of the paper's 24 approximate applications.
//!
//! Each kernel module implements [`crate::kernel::ApproxKernel`]: it generates a
//! deterministic synthetic input, exposes the approximation knobs its original counterpart
//! exposes (perforable loops, precision, synchronization elision, input sampling), and
//! measures output quality against its own precise execution. The design-space exploration
//! in `pliant-explore` uses these kernels to regenerate the execution-time-vs-inaccuracy
//! trade-off curves of Fig. 1.
//!
//! Kernels are grouped by benchmark suite:
//!
//! * [`parsec`] — fluidanimate, canneal, streamcluster
//! * [`splash2`] — water_nsquared, water_spatial, raytrace
//! * [`minebench`] — Naive Bayesian, K-means, Fuzzy K-means, BIRCH, SNP, GeneNet, SEMPHY,
//!   SVM-RFE, PLSA, ScalParC
//! * [`bioperf`] — Hmmer, Blast, Fasta, GRAPPA, ClustalW, T-Coffee, Glimmer, CE

pub mod bioperf;
pub mod minebench;
pub mod parsec;
pub mod splash2;

use crate::catalog::AppId;
use crate::kernel::ApproxKernel;

/// Constructs the default ("small input") kernel instance for an application.
///
/// The `seed` controls synthetic input generation; the same seed always produces the same
/// input and therefore the same precise output.
pub fn kernel_for(app: AppId, seed: u64) -> Box<dyn ApproxKernel> {
    match app {
        AppId::Fluidanimate => Box::new(parsec::fluidanimate::FluidanimateKernel::small(seed)),
        AppId::Canneal => Box::new(parsec::canneal::CannealKernel::small(seed)),
        AppId::Streamcluster => Box::new(parsec::streamcluster::StreamclusterKernel::small(seed)),
        AppId::WaterNsquared => Box::new(splash2::water_nsquared::WaterNsquaredKernel::small(seed)),
        AppId::WaterSpatial => Box::new(splash2::water_spatial::WaterSpatialKernel::small(seed)),
        AppId::Raytrace => Box::new(splash2::raytrace::RaytraceKernel::small(seed)),
        AppId::Bayesian => Box::new(minebench::bayesian::BayesianKernel::small(seed)),
        AppId::KMeans => Box::new(minebench::kmeans::KMeansKernel::small(seed)),
        AppId::FuzzyKMeans => Box::new(minebench::fuzzy_kmeans::FuzzyKMeansKernel::small(seed)),
        AppId::Birch => Box::new(minebench::birch::BirchKernel::small(seed)),
        AppId::Snp => Box::new(minebench::snp::SnpKernel::small(seed)),
        AppId::GeneNet => Box::new(minebench::genenet::GeneNetKernel::small(seed)),
        AppId::Semphy => Box::new(minebench::semphy::SemphyKernel::small(seed)),
        AppId::SvmRfe => Box::new(minebench::svm_rfe::SvmRfeKernel::small(seed)),
        AppId::Plsa => Box::new(minebench::plsa::PlsaKernel::small(seed)),
        AppId::ScalParC => Box::new(minebench::scalparc::ScalParCKernel::small(seed)),
        AppId::Hmmer => Box::new(bioperf::hmmer::HmmerKernel::small(seed)),
        AppId::Blast => Box::new(bioperf::blast::BlastKernel::small(seed)),
        AppId::Fasta => Box::new(bioperf::fasta::FastaKernel::small(seed)),
        AppId::Grappa => Box::new(bioperf::grappa::GrappaKernel::small(seed)),
        AppId::ClustalW => Box::new(bioperf::clustalw::ClustalWKernel::small(seed)),
        AppId::TCoffee => Box::new(bioperf::tcoffee::TCoffeeKernel::small(seed)),
        AppId::Glimmer => Box::new(bioperf::glimmer::GlimmerKernel::small(seed)),
        AppId::Ce => Box::new(bioperf::ce::CeKernel::small(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ApproxConfig;

    #[test]
    fn every_app_has_a_kernel() {
        for app in AppId::all() {
            let k = kernel_for(app, 7);
            assert!(!k.name().is_empty());
            assert!(
                !k.candidate_configs().is_empty(),
                "{} must expose at least one approximate configuration",
                k.name()
            );
        }
    }

    #[test]
    fn empty_and_single_item_inputs_run_every_configuration() {
        for n in [0usize, 1] {
            let kernels: [Box<dyn ApproxKernel>; 6] = [
                Box::new(parsec::fluidanimate::FluidanimateKernel::new(3, n, 3)),
                Box::new(splash2::water_nsquared::WaterNsquaredKernel::new(3, n, 3)),
                Box::new(splash2::water_spatial::WaterSpatialKernel::new(3, n, 3)),
                Box::new(bioperf::clustalw::ClustalWKernel::new(3, n, 40)),
                Box::new(bioperf::tcoffee::TCoffeeKernel::new(3, n, 40)),
                Box::new(minebench::semphy::SemphyKernel::new(3, n, 40)),
            ];
            for kernel in &kernels {
                let precise = kernel.run_precise();
                for config in kernel.candidate_configs() {
                    let inaccuracy = kernel.run(&config).output.inaccuracy_vs(&precise.output);
                    assert!(
                        (0.0..=100.0).contains(&inaccuracy),
                        "{} n={n} {}: {inaccuracy}",
                        kernel.name(),
                        config.label
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_are_deterministic_in_seed() {
        for app in [AppId::KMeans, AppId::Canneal, AppId::Hmmer] {
            let a = kernel_for(app, 5).run(&ApproxConfig::precise());
            let b = kernel_for(app, 5).run(&ApproxConfig::precise());
            assert_eq!(
                a.output, b.output,
                "{app:?} precise output must be deterministic"
            );
            assert_eq!(a.cost, b.cost);
        }
    }
}
