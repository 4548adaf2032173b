//! The fleet-cell runner the five fleet figures share.
//!
//! [`FleetRunner::new`] reads the fleet flags a figure declares: `--approx K`,
//! `--rack-size N` with `--rack-power-w W`, `--trace PATH` with
//! `--trace-level off|decisions|full`, and `--checkpoint-at K --checkpoint-dir DIR`
//! with `--resume-dir DIR`. Each [`FleetRunner::run`] then applies the overrides to
//! one cell's scenario, checks it, restores and snapshots the cell, runs it, and
//! exports its event log.
//!
//! `--rack-size N` cuts each cell's fleet into racks of `N` nodes, as many as the fleet
//! fills, each with the `--rack-power-w` budget when one is given. A fleet whose size
//! is not a multiple of `N` runs flat.
//!
//! The trace level sets what a run records: `--trace-level` when given, `decisions`
//! when only `--trace` is, and nothing otherwise. Every run that records lands in the
//! figure's `obs` block; `--trace` only adds a file per run, with the run's name
//! inserted before the extension (`traces/fig.json` and run `pliant` write
//! `traces/fig-pliant.json`). The extension picks the sink format: `.json` is Chrome
//! trace-event JSON loadable in Perfetto, anything else JSON Lines.
//!
//! A traced run cannot checkpoint or resume: a checkpoint does not carry the event log,
//! so a resumed run would record only the events after the resume point.

use std::io::Write;

use pliant_cluster::prelude::*;
use pliant_core::engine::Engine;
use pliant_telemetry::obs::{EventLog, ObsLevel, ObsSummary, SinkFormat};
use serde::Serialize;

use crate::cli::{reject, Cli};

/// The `--rack-size` layout of a fleet of `nodes`: racks of `nodes_per_rack` with the
/// `--rack-power-w` budget, as many as the fleet fills, or flat when the fleet cannot
/// be cut into whole racks.
fn racks_of(nodes_per_rack: usize, rack_power_w: Option<f64>, nodes: usize) -> TopologyConfig {
    if nodes.is_multiple_of(nodes_per_rack) {
        TopologyConfig::Racks {
            racks: nodes / nodes_per_rack,
            nodes_per_rack,
            rack_power_w,
        }
    } else {
        TopologyConfig::Flat
    }
}

/// One traced run's export record, attached to figure `--json` outputs as the `obs`
/// summary block (empty list when the figure ran untraced).
#[derive(Debug, Clone, Serialize)]
pub struct TraceRunSummary {
    /// Which run of the figure the trace covers (e.g. `pliant`, `5n-precise`).
    pub run: String,
    /// File the event stream was written to (`None` when no `--trace` path was given).
    pub trace_file: Option<String>,
    /// The run's event rollup.
    pub summary: ObsSummary,
}

/// Writes one run's event log to the trace `base` path with `tag` inserted before the
/// extension, in the sink format of that extension, and returns the path written.
fn write_trace_log(base: &str, tag: &str, log: &EventLog) -> std::io::Result<String> {
    let path = match base.rfind('.') {
        // A dot inside the last path segment separates the extension.
        Some(dot) if !base[dot..].contains('/') => {
            format!("{}-{}{}", &base[..dot], tag, &base[dot..])
        }
        _ => format!("{base}-{tag}"),
    };
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    SinkFormat::for_path(&path).write(log, &mut file)?;
    file.flush()?;
    Ok(path)
}

/// Prints `error: {message}` and exits with status 1, the status of a file that
/// cannot be read or written.
fn io_failure(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Runs a fleet figure's cells under the fleet flags; see the module docs.
#[derive(Debug)]
pub struct FleetRunner {
    engine: Engine,
    approximation: Option<FleetApproximation>,
    /// `--rack-size`: nodes per rack, laid out over each cell's fleet.
    rack_size: Option<usize>,
    rack_power_w: Option<f64>,
    trace: Option<String>,
    /// The level every run records at and reports in `obs`.
    level: ObsLevel,
    /// The level a run records at, without reporting it, when `level` is off.
    floor: ObsLevel,
    checkpoint: Option<(usize, String)>,
    resume_dir: Option<String>,
    obs: Vec<TraceRunSummary>,
}

impl FleetRunner {
    /// Reads the fleet flags; a figure that does not declare one never sees it. Exits
    /// with status 2 on an invalid value, on `--rack-power-w` without `--rack-size`, on
    /// `--checkpoint-at` without `--checkpoint-dir` or the reverse, and on a checkpoint
    /// or resume flag in a traced run.
    pub fn new(cli: &Cli) -> Self {
        let rack_size: Option<usize> = cli.value("--rack-size");
        if rack_size == Some(0) {
            reject("--rack-size must be positive");
        }
        let rack_power_w: Option<f64> = cli.value("--rack-power-w");
        if rack_power_w.is_some() && rack_size.is_none() {
            reject("--rack-power-w requires --rack-size");
        }
        if rack_power_w.is_some_and(|watts| !watts.is_finite() || watts <= 0.0) {
            reject("--rack-power-w must be positive");
        }
        let trace = cli.text("--trace").map(str::to_string);
        let level = match cli.text("--trace-level") {
            Some(name) => ObsLevel::parse(name)
                .unwrap_or_else(|| reject("--trace-level expects off, decisions, or full")),
            None if trace.is_some() => ObsLevel::Decisions,
            None => ObsLevel::Off,
        };
        let checkpoint_at: Option<usize> = cli.value("--checkpoint-at");
        let checkpoint_dir = cli.text("--checkpoint-dir").map(str::to_string);
        if checkpoint_at.is_some() != checkpoint_dir.is_some() {
            reject("--checkpoint-at and --checkpoint-dir must be given together");
        }
        let resume_dir = cli.text("--resume-dir").map(str::to_string);
        let traced = trace.is_some() || level != ObsLevel::Off;
        if traced && (checkpoint_at.is_some() || resume_dir.is_some()) {
            reject(
                "a traced run cannot checkpoint or resume: the checkpoint does not carry \
                 the event log, so a resumed run would record only post-resume events \
                 (ROADMAP item 6(a)); drop the trace flags or the checkpoint flags",
            );
        }
        let approximation = cli.value("--approx").map(|k| match k {
            0 => FleetApproximation::Exact,
            k => FleetApproximation::Clustered {
                representatives_per_group: k,
            },
        });
        FleetRunner {
            engine: Engine::new(),
            approximation,
            rack_size,
            rack_power_w,
            trace,
            level,
            floor: ObsLevel::Off,
            checkpoint: checkpoint_at.zip(checkpoint_dir),
            resume_dir,
            obs: Vec::new(),
        }
    }

    /// Records every run at `decisions` at least, for a figure that reads its own
    /// rollups from the logs; the `obs` block still follows the flags.
    pub fn reading_decisions(mut self) -> Self {
        self.floor = ObsLevel::Decisions;
        self
    }

    /// Reports every run in the `obs` block, recorded at `decisions` when the flags
    /// ask for less.
    pub fn reporting_decisions(mut self) -> Self {
        if self.level == ObsLevel::Off {
            self.level = ObsLevel::Decisions;
        }
        self
    }

    /// Applies the `--approx` and `--rack-size` overrides to `scenario` and checks it.
    /// Exits with status 2 when the result does not validate.
    fn prepare(&self, scenario: &mut ClusterScenario) {
        if let Some(approximation) = self.approximation {
            scenario.approximation = approximation;
        }
        if let Some(nodes_per_rack) = self.rack_size {
            scenario.topology = racks_of(nodes_per_rack, self.rack_power_w, scenario.nodes);
        }
        if let Err(e) = scenario.validate() {
            reject(format!(
                "the {}-machine fleet is invalid: {e}",
                scenario.nodes
            ));
        }
    }

    /// Runs one cell, named `tag`, to completion and returns its outcome and event
    /// log. The overrides are applied to `scenario` in place. With `--resume-dir DIR`
    /// the cell first restores `DIR/{tag}.json`; with `--checkpoint-at K
    /// --checkpoint-dir DIR` it writes its state at interval `K` to `DIR/{tag}.json`
    /// and runs on. Exits with status 1 when a file cannot be read or written.
    pub fn run(&mut self, scenario: &mut ClusterScenario, tag: &str) -> (ClusterOutcome, EventLog) {
        self.prepare(scenario);
        let level = if self.level == ObsLevel::Off {
            self.floor
        } else {
            self.level
        };
        let mut run = ClusterRun::with_obs(scenario, &self.engine, level);
        if let Some(dir) = &self.resume_dir {
            let path = format!("{dir}/{tag}.json");
            let restored = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    serde_json::from_str::<ClusterRunCheckpoint>(&text).map_err(|e| e.to_string())
                })
                .and_then(|checkpoint| run.restore(&checkpoint));
            if let Err(e) = restored {
                io_failure(format!("cannot restore checkpoint {path}: {e}"));
            }
        }
        if let Some((at, dir)) = &self.checkpoint {
            while run.intervals() < *at && run.step() {}
            let path = format!("{dir}/{tag}.json");
            let text = serde_json::to_string(&run.checkpoint()).expect("checkpoints serialize");
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
            {
                io_failure(format!("cannot write checkpoint {path}: {e}"));
            }
            eprintln!("checkpoint: {path} at interval {}", run.intervals());
        }
        let (outcome, log) = run.finish();
        if self.level != ObsLevel::Off {
            let trace_file = self.trace.as_ref().map(|base| {
                write_trace_log(base, tag, &log)
                    .unwrap_or_else(|e| io_failure(format!("cannot write trace file: {e}")))
            });
            self.obs.push(TraceRunSummary {
                run: tag.to_string(),
                trace_file,
                summary: log.summary(),
            });
        }
        (outcome, log)
    }

    /// Runs one cell with the overrides applied, unrecorded whatever the trace flags.
    pub fn run_untraced(&self, scenario: &mut ClusterScenario) -> ClusterOutcome {
        self.prepare(scenario);
        self.engine.run_cluster(scenario)
    }

    /// The trace summaries of the runs so far, in run order: the figure's `obs` block.
    pub fn obs(&self) -> Vec<TraceRunSummary> {
        self.obs.clone()
    }

    /// Prints `figure` like [`Cli::emit`]; under the text report, one line per trace
    /// file written.
    pub fn emit<F: Serialize>(&self, cli: &Cli, figure: &F, report: impl FnOnce(&F)) {
        cli.emit(figure, |figure| {
            report(figure);
            for t in &self.obs {
                if let Some(file) = &t.trace_file {
                    println!(
                        "trace ({}): {} events -> {file}",
                        t.run, t.summary.events_recorded
                    );
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(racks: usize, nodes_per_rack: usize) -> TopologyConfig {
        TopologyConfig::Racks {
            racks,
            nodes_per_rack,
            rack_power_w: Some(300.0),
        }
    }

    #[test]
    fn rack_size_cuts_each_fleet_size_into_whole_racks() {
        // The rack shape and budget are kept and the rack count follows the fleet.
        assert_eq!(racks_of(3, Some(300.0), 6), grid(2, 3));
        assert_eq!(racks_of(3, Some(300.0), 9), grid(3, 3));
        assert_eq!(racks_of(3, Some(300.0), 3), grid(1, 3));
        // A fleet that cannot be cut into whole racks runs flat.
        assert_eq!(racks_of(3, Some(300.0), 7), TopologyConfig::Flat);
        assert_eq!(racks_of(3, Some(300.0), 1), TopologyConfig::Flat);
    }
}
