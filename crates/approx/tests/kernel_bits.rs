//! Bit-level pins for the kernels whose hot loops were rewritten for speed under the
//! promise that no bit changes: the pair-loop kernels (`water_spatial`,
//! `water_nsquared`, `fluidanimate`), the alignment kernels (`clustalw`, `fasta`,
//! `tcoffee`), `fuzzy_kmeans`, `glimmer`, and the kernels that draw from the `rand`
//! shim inside `run` (`grappa`, `streamcluster`, `canneal`).
//!
//! Each digest hashes, for every configuration run, the bits of `cost.ops`,
//! `cost.bytes_touched` and the output. The design-space benchmark compares floats only
//! to 1e-9 and the Fig. 1 golden pins one seed, so neither notices a one-ulp drift in an
//! `F32` op count; these digests do. Besides the candidate configurations, every instance
//! runs configurations the candidate lists never use: `Fixed16`, reduced precision
//! combined with perforation, `TruncateBy`, `KeepFraction`, and synchronization elision
//! combined with perforation. The kernels outside the pair-loop family also run input
//! sampling, alone and combined with precision and perforation.
//!
//! A digest changes only when a kernel's arithmetic does. To re-record after an
//! intended change, run `cargo test -p pliant-approx --test kernel_bits -- --nocapture`
//! and copy the printed table.

use pliant_approx::kernel::{ApproxConfig, ApproxKernel, KernelOutput};
use pliant_approx::kernels::bioperf::clustalw::{self, ClustalWKernel};
use pliant_approx::kernels::bioperf::fasta::{self, FastaKernel};
use pliant_approx::kernels::bioperf::glimmer::{self, GlimmerKernel};
use pliant_approx::kernels::bioperf::grappa::{self, GrappaKernel};
use pliant_approx::kernels::bioperf::tcoffee::{self, TCoffeeKernel};
use pliant_approx::kernels::minebench::fuzzy_kmeans::{self, FuzzyKMeansKernel};
use pliant_approx::kernels::parsec::canneal::{self, CannealKernel};
use pliant_approx::kernels::parsec::fluidanimate::{self, FluidanimateKernel};
use pliant_approx::kernels::parsec::streamcluster::{self, StreamclusterKernel};
use pliant_approx::kernels::splash2::water_nsquared::{self, WaterNsquaredKernel};
use pliant_approx::kernels::splash2::water_spatial::{self, WaterSpatialKernel};
use pliant_approx::techniques::{Perforation, Precision, SyncElision};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Configurations outside the candidate lists, for a kernel whose inner loop is site
/// `pairs` and whose outer loop is site `steps`.
fn extra_configs(pairs: u32, steps: u32) -> Vec<ApproxConfig> {
    vec![
        ApproxConfig::precise().with_precision(Precision::Fixed16),
        ApproxConfig::precise()
            .with_precision(Precision::F32)
            .with_perforation(pairs, Perforation::KeepEveryNth(3)),
        ApproxConfig::precise()
            .with_precision(Precision::Fixed16)
            .with_perforation(pairs, Perforation::SkipEveryNth(2)),
        ApproxConfig::precise()
            .with_precision(Precision::F32)
            .with_sync(SyncElision::with_staleness(2)),
        ApproxConfig::precise().with_perforation(pairs, Perforation::TruncateBy(3)),
        ApproxConfig::precise().with_perforation(pairs, Perforation::KeepFraction(0.6)),
        ApproxConfig::precise().with_perforation(steps, Perforation::KeepFraction(0.7)),
        ApproxConfig::precise().with_perforation(steps, Perforation::TruncateBy(2)),
        ApproxConfig::precise()
            .with_sync(SyncElision::with_staleness(3))
            .with_perforation(pairs, Perforation::SkipEveryNth(3)),
        ApproxConfig::precise()
            .with_sync(SyncElision::with_staleness(2))
            .with_perforation(pairs, Perforation::TruncateBy(2))
            .with_perforation(steps, Perforation::SkipEveryNth(4)),
    ]
}

fn digest(kernel: &dyn ApproxKernel, configs: &[ApproxConfig]) -> u64 {
    let mut h = Fnv::new();
    for config in configs {
        let run = kernel.run(config);
        h.u64(run.cost.ops.to_bits());
        h.u64(run.cost.bytes_touched.to_bits());
        match &run.output {
            KernelOutput::Scalar(x) => h.u64(x.to_bits()),
            KernelOutput::Vector(v) => {
                h.u64(v.len() as u64);
                v.iter().for_each(|x| h.u64(x.to_bits()));
            }
            KernelOutput::Labels(l) => {
                h.u64(l.len() as u64);
                l.iter().for_each(|&x| h.u64(u64::from(x)));
            }
        }
    }
    h.0
}

/// Input-sampling configurations, alone and combined with the other techniques, for the
/// kernels that read `input_fraction`.
fn sampling_configs(pairs: u32, steps: u32) -> Vec<ApproxConfig> {
    vec![
        ApproxConfig::precise().with_input_sampling(0.5),
        ApproxConfig::precise()
            .with_input_sampling(0.3)
            .with_precision(Precision::F32),
        ApproxConfig::precise()
            .with_input_sampling(0.7)
            .with_precision(Precision::Fixed16)
            .with_perforation(pairs, Perforation::KeepEveryNth(2)),
        ApproxConfig::precise()
            .with_input_sampling(0.8)
            .with_perforation(steps, Perforation::TruncateBy(3)),
    ]
}

/// Every configuration of one instance: precise, the candidates, then the extras.
fn all_configs(kernel: &dyn ApproxKernel, pairs: u32, steps: u32) -> Vec<ApproxConfig> {
    let mut configs = vec![ApproxConfig::precise()];
    configs.extend(kernel.candidate_configs());
    configs.extend(extra_configs(pairs, steps));
    configs
}

/// `(instance, digest)` for each pinned pair-loop instance: reduced sizes on three seeds
/// and the exploration size (`small`) on two, each with every configuration.
fn pair_loop_digests() -> Vec<(String, u64)> {
    let mut instances: Vec<(String, Box<dyn ApproxKernel>, u32, u32)> = Vec::new();
    let sized = [
        (1u64, false),
        (7, false),
        (23, false),
        (5, true),
        (11, true),
    ];
    for (seed, small) in sized {
        let (spatial, nsquared, fluid) = if small {
            (
                WaterSpatialKernel::small(seed),
                WaterNsquaredKernel::small(seed),
                FluidanimateKernel::small(seed),
            )
        } else {
            (
                WaterSpatialKernel::new(seed, 120, 6),
                WaterNsquaredKernel::new(seed, 64, 6),
                FluidanimateKernel::new(seed, 72, 6),
            )
        };
        let size = if small { "small" } else { "reduced" };
        instances.push((
            format!("water_spatial {size}({seed})"),
            Box::new(spatial),
            water_spatial::SITE_CELL_INTERACTIONS,
            water_spatial::SITE_TIME_STEPS,
        ));
        instances.push((
            format!("water_nsquared {size}({seed})"),
            Box::new(nsquared),
            water_nsquared::SITE_PAIR_FORCES,
            water_nsquared::SITE_TIME_STEPS,
        ));
        instances.push((
            format!("fluidanimate {size}({seed})"),
            Box::new(fluid),
            fluidanimate::SITE_NEIGHBOURS,
            fluidanimate::SITE_TIME_STEPS,
        ));
    }
    instances
        .iter()
        .map(|(name, kernel, pairs, steps)| {
            let configs = all_configs(kernel.as_ref(), *pairs, *steps);
            (name.clone(), digest(kernel.as_ref(), &configs))
        })
        .collect()
}

const EXPECTED: &[(&str, u64)] = &[
    ("water_spatial reduced(1)", 0x8a8cf76b8b440cad),
    ("water_nsquared reduced(1)", 0x55fcfb01047e2bf9),
    ("fluidanimate reduced(1)", 0x4b4453ef3670ca49),
    ("water_spatial reduced(7)", 0x976a997dc13e3570),
    ("water_nsquared reduced(7)", 0x55dce04b24d14ea3),
    ("fluidanimate reduced(7)", 0xae71214a9b66e0dc),
    ("water_spatial reduced(23)", 0xbd858a6bec789ef2),
    ("water_nsquared reduced(23)", 0x8fe7b085d7e2ffda),
    ("fluidanimate reduced(23)", 0x46d932edf768b7ca),
    ("water_spatial small(5)", 0xf959ba4f6c758b58),
    ("water_nsquared small(5)", 0xe4f3691bbb70b2fc),
    ("fluidanimate small(5)", 0xd50a264436ca019f),
    ("water_spatial small(11)", 0x0e464b6da1401679),
    ("water_nsquared small(11)", 0x2a3dd56434039729),
    ("fluidanimate small(11)", 0xf4fcaee27b5723c9),
];

#[test]
fn pair_loop_kernels_keep_their_bits() {
    let got = pair_loop_digests();
    for (name, d) in &got {
        println!("    (\"{name}\", 0x{d:016x}),");
    }
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    assert_eq!(got, expected, "a pair-loop kernel's bits changed");
}

/// One instance of each of the other pinned kernels: the exploration size (`small`) on
/// the given seed, or a reshaped instance (other lengths and counts) when `small` is
/// false. Sites are `(inner, outer)` as [`extra_configs`] takes them.
fn other_instances(seed: u64, small: bool) -> Vec<(String, Box<dyn ApproxKernel>, u32, u32)> {
    fn sized<K: ApproxKernel + 'static>(
        small: bool,
        small_kernel: impl FnOnce() -> K,
        reshaped: impl FnOnce() -> K,
    ) -> Box<dyn ApproxKernel> {
        if small {
            Box::new(small_kernel())
        } else {
            Box::new(reshaped())
        }
    }
    let size = if small { "small" } else { "reshaped" };
    vec![
        (
            format!("clustalw {size}({seed})"),
            sized(
                small,
                || ClustalWKernel::small(seed),
                || ClustalWKernel::new(seed, 7, 97),
            ),
            clustalw::SITE_PAIRWISE,
            clustalw::SITE_BAND,
        ),
        (
            format!("fasta {size}({seed})"),
            sized(
                small,
                || FastaKernel::small(seed),
                || FastaKernel::new(seed, 83, 14, 121),
            ),
            fasta::SITE_DATABASE,
            fasta::SITE_BAND,
        ),
        (
            format!("tcoffee {size}({seed})"),
            sized(
                small,
                || TCoffeeKernel::small(seed),
                || TCoffeeKernel::new(seed, 6, 71),
            ),
            tcoffee::SITE_LIBRARY,
            tcoffee::SITE_TRIPLETS,
        ),
        (
            format!("fuzzy_kmeans {size}({seed})"),
            sized(
                small,
                || FuzzyKMeansKernel::small(seed),
                || FuzzyKMeansKernel::new(seed, 173, 3, 4, 7),
            ),
            fuzzy_kmeans::SITE_MEMBERSHIP,
            fuzzy_kmeans::SITE_ITERATIONS,
        ),
        (
            format!("glimmer {size}({seed})"),
            sized(
                small,
                || GlimmerKernel::small(seed),
                || GlimmerKernel::new(seed, 2_500, 5),
            ),
            glimmer::SITE_CANDIDATES,
            glimmer::SITE_MODEL_ORDER,
        ),
        (
            format!("grappa {size}({seed})"),
            sized(
                small,
                || GrappaKernel::small(seed),
                || GrappaKernel::new(seed, 7, 33, 90),
            ),
            grappa::SITE_PAIR_DISTANCES,
            grappa::SITE_MEDIAN_SEARCH,
        ),
        (
            format!("streamcluster {size}({seed})"),
            sized(
                small,
                || StreamclusterKernel::small(seed),
                || StreamclusterKernel::new(seed, 230, 3, 5, 4),
            ),
            streamcluster::SITE_GAIN_EVAL,
            streamcluster::SITE_SEARCH_PASSES,
        ),
        (
            format!("canneal {size}({seed})"),
            sized(
                small,
                || CannealKernel::small(seed),
                || CannealKernel::new(seed, 96, 3, 9),
            ),
            canneal::SITE_NET_EVAL,
            canneal::SITE_ANNEAL_LOOP,
        ),
    ]
}

/// `(instance, digest)` for each other pinned instance: the reshaped instances on two
/// seeds and the exploration size on two, each with every configuration plus the
/// input-sampling extras.
fn other_digests() -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for (seed, small) in [(1u64, false), (7, false), (5, true), (11, true)] {
        for (name, kernel, pairs, steps) in other_instances(seed, small) {
            let mut configs = all_configs(kernel.as_ref(), pairs, steps);
            configs.extend(sampling_configs(pairs, steps));
            got.push((name, digest(kernel.as_ref(), &configs)));
        }
    }
    got
}

const OTHER_EXPECTED: &[(&str, u64)] = &[
    ("clustalw reshaped(1)", 0x2971c2f0e8dc787e),
    ("fasta reshaped(1)", 0x25c4ba06c34b2ec2),
    ("tcoffee reshaped(1)", 0x473398c5e73ded2c),
    ("fuzzy_kmeans reshaped(1)", 0x6294ef9df4ea248d),
    ("glimmer reshaped(1)", 0xabb219cd647673e1),
    ("grappa reshaped(1)", 0x5ff008bf51f67fc4),
    ("streamcluster reshaped(1)", 0x295f8c8e26066469),
    ("canneal reshaped(1)", 0xcd593d42dff28bf8),
    ("clustalw reshaped(7)", 0xf5235be0efbbb6e6),
    ("fasta reshaped(7)", 0x4d94cd211db65614),
    ("tcoffee reshaped(7)", 0x8cbf7d6c5249747a),
    ("fuzzy_kmeans reshaped(7)", 0x7331e5ebeec8e1ce),
    ("glimmer reshaped(7)", 0xe990ae303459b88f),
    ("grappa reshaped(7)", 0xd418b07964ebbd81),
    ("streamcluster reshaped(7)", 0x729beb1ac92afddc),
    ("canneal reshaped(7)", 0x89b582b40c18d376),
    ("clustalw small(5)", 0x4b614729dc242bb2),
    ("fasta small(5)", 0x10ee1ee11375080d),
    ("tcoffee small(5)", 0x07fbffa75a5ae5a6),
    ("fuzzy_kmeans small(5)", 0x9228cde2adc09a76),
    ("glimmer small(5)", 0xebd3b7e2ebb7afd2),
    ("grappa small(5)", 0xc6eaa9f6ea56fb14),
    ("streamcluster small(5)", 0x37fb3bb0c76274f1),
    ("canneal small(5)", 0xc1585299f37ef05b),
    ("clustalw small(11)", 0xf058368467e8eb9d),
    ("fasta small(11)", 0x96bde6afbf9c92ca),
    ("tcoffee small(11)", 0xc1d239aaf8d768e5),
    ("fuzzy_kmeans small(11)", 0x7975f6ec04ddc29b),
    ("glimmer small(11)", 0xe61074c9ea6b7d51),
    ("grappa small(11)", 0x249bdae8779acfe2),
    ("streamcluster small(11)", 0x1e7dc7f5dd5a15a9),
    ("canneal small(11)", 0x2cf6966ddd1b8037),
];

#[test]
fn rewritten_and_rng_drawing_kernels_keep_their_bits() {
    let got = other_digests();
    for (name, d) in &got {
        println!("    (\"{name}\", 0x{d:016x}),");
    }
    let expected: Vec<(String, u64)> = OTHER_EXPECTED
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    assert_eq!(got, expected, "a kernel's bits changed");
}
