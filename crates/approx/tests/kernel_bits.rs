//! Bit-level pins for the pair-loop kernels (`water_spatial`, `water_nsquared`,
//! `fluidanimate`).
//!
//! Each digest hashes, for every configuration run, the bits of `cost.ops`,
//! `cost.bytes_touched` and the output. The design-space benchmark compares floats only
//! to 1e-9 and the Fig. 1 golden pins one seed, so neither notices a one-ulp drift in an
//! `F32` op count; these digests do. Besides the candidate configurations, every instance
//! runs configurations the candidate lists never use: `Fixed16`, reduced precision
//! combined with perforation, `TruncateBy`, `KeepFraction`, and synchronization elision
//! combined with perforation.
//!
//! A digest changes only when a kernel's arithmetic does. To re-record after an
//! intended change, run `cargo test -p pliant-approx --test kernel_bits -- --nocapture`
//! and copy the printed table.

use pliant_approx::kernel::{ApproxConfig, ApproxKernel, KernelOutput};
use pliant_approx::kernels::parsec::fluidanimate::{self, FluidanimateKernel};
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

/// Configurations outside the candidate lists, for a kernel whose inner interaction
/// loop is site `pairs` and whose time-step loop is site `steps`.
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

/// Every configuration of one instance: precise, the candidates, then the extras.
fn all_configs(kernel: &dyn ApproxKernel, pairs: u32, steps: u32) -> Vec<ApproxConfig> {
    let mut configs = vec![ApproxConfig::precise()];
    configs.extend(kernel.candidate_configs());
    configs.extend(extra_configs(pairs, steps));
    configs
}

/// `(instance, digest)` for each pinned instance: reduced sizes on three seeds and the
/// exploration size (`small`) on two, each with every configuration.
fn digests() -> Vec<(String, u64)> {
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
    let got = digests();
    for (name, d) in &got {
        println!("    (\"{name}\", 0x{d:016x}),");
    }
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    assert_eq!(got, expected, "a pair-loop kernel's bits changed");
}
