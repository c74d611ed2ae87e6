//! The repository benchmark binary. `run.py` builds and drives it; see
//! README.md for the workloads, metrics and the one command.
//!
//! ```text
//! wsn-perfbench --workload <construct|serve-local>
//!               --seed <u64> --seconds <s> --trace <0|1>
//!               [--scale full|smoke] [--source-id ID]
//! ```
//!
//! Every workload runs the three user-facing phases: construction of the
//! seven compared topologies, NN-SENS construction, and the query service.
//! The workload's own phases are its *main* phases and run at full size
//! (construct: both construction phases; serve-local: the service); the
//! others run as small *companion* phases, so that every metric has a
//! measured value on every workload. Set-up and the phases repeat in rounds
//! until `--seconds` are used, and each metric is the median of its
//! samples. Outputs are checked untimed after the timed part.
//!
//! Stdout gets two JSON lines: run metadata, then the result
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` re-runs the same work with the calls
//! split at layer boundaries, reports the per-layer metrics, and writes
//! the spans as Chrome trace-event JSON to
//! `perfbench/out/trace-<workload>-<seed>.json`.

mod construct;
mod nnsens;
mod record;
mod serve;

use std::fmt::Write as _;
use std::time::Instant;

use record::{json_num, json_str, median, Metrics, Source, Tracer};

/// Shared state of one run.
pub struct Ctx {
    pub tr: Tracer,
    pub metrics: Metrics,
    /// Named correctness checks and their outcome.
    pub checks: Vec<(String, bool)>,
    /// Timed operations attempted / failed (builds and queries).
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Set-up samples per phase; `setup_s` sums their medians.
    pub setup: Vec<(&'static str, Vec<f64>)>,
    /// Realised sizes (`n`, `m`) for the metadata line.
    pub sizes: Vec<(String, f64)>,
}

impl Ctx {
    fn new(traced: bool) -> Self {
        Ctx {
            tr: Tracer::new(traced),
            metrics: Metrics::default(),
            checks: Vec::new(),
            ops_attempted: 0,
            ops_failed: 0,
            setup: Vec::new(),
            sizes: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tr.enabled()
    }

    /// Record one correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    pub fn add(&mut self, src: Source, name: &str, unit: &'static str, value: f64) {
        self.metrics.add(src, name, unit, value);
    }

    pub fn setup_sample(&mut self, phase: &'static str, secs: f64) {
        match self.setup.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, v)) => v.push(secs),
            None => self.setup.push((phase, vec![secs])),
        }
    }

    pub fn size(&mut self, name: impl Into<String>, value: f64) {
        self.sizes.push((name.into(), value));
    }
}

/// One phase of a workload: set up by its constructor, then repeated.
pub trait Phase {
    /// One more timed set-up (once per round, so that `setup_s` is a
    /// median over the whole run, not over its first instants).
    fn setup_rep(&mut self, ctx: &mut Ctx);
    /// One timed repetition.
    fn rep(&mut self, ctx: &mut Ctx);
    /// Traced runs only: measurements beyond the repetitions.
    fn traced_extras(&mut self, _ctx: &mut Ctx) {}
    /// Untimed correctness checks of what the repetitions produced.
    fn check(self: Box<Self>, ctx: &mut Ctx);
}

/// Fewest rounds per run (a median needs a few samples).
const MIN_ROUNDS: usize = 3;

/// Rayon workers of the construction phases (both CPUs of the reference
/// host) and of the serve phases (whose reader thread is the second CPU's
/// work): at most two threads run at once.
const BUILD_THREADS: usize = 2;
const SERVE_THREADS: usize = 1;

/// Set the rayon worker count of the calls that follow. The vendored rayon
/// reads `RAYON_NUM_THREADS` at every fan-out.
fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Repetitions per round of the companion phases: they run at a small
/// size, so a steady median needs more samples than the rounds alone give.
const COMPANION_REPS: usize = 3;

/// The phases every workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Construct,
    NnSens,
    Serve,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Construct,
    ServeLocal,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "construct" => Workload::Construct,
            "serve-local" => Workload::ServeLocal,
            _ => return None,
        })
    }

    /// The phases this workload runs at full size.
    fn main_phases(self) -> &'static [Kind] {
        match self {
            Workload::Construct => &[Kind::Construct, Kind::NnSens],
            Workload::ServeLocal => &[Kind::Serve],
        }
    }
}

/// Node counts of each phase, main and companion.
struct Scale {
    construct_main: f64,
    construct_companion: f64,
    nn_main: f64,
    nn_companion: f64,
    serve_main: f64,
    serve_companion: f64,
}

const FULL: Scale = Scale {
    construct_main: 200_000.0,
    construct_companion: 20_000.0,
    nn_main: 10_000.0,
    nn_companion: 2_000.0,
    serve_main: 100_000.0,
    serve_companion: 20_000.0,
};

/// The smoke test's size: every phase at n ≈ 2·10³, through the same code.
const SMOKE: Scale = Scale {
    construct_main: 2_000.0,
    construct_companion: 2_000.0,
    nn_main: 2_000.0,
    nn_companion: 2_000.0,
    serve_main: 2_000.0,
    serve_companion: 2_000.0,
};

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    source_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut smoke, mut source_id) = (false, "unknown".to_string());
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                seconds =
                    Some(value()?.parse::<f64>().map_err(|e| e.to_string())?).filter(|s| *s > 0.0)
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--scale" => {
                smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    v => return Err(format!("--scale takes full or smoke, not {v}")),
                }
            }
            "--source-id" => source_id = value()?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds (> 0) is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        source_id,
    })
}

/// A `VmHWM`-style field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scale = if args.smoke { &SMOKE } else { &FULL };
    let mut ctx = Ctx::new(args.traced);
    let started = Instant::now();

    // Set-up, the workload's own phases first.
    // (rayon threads, repetitions per round, phase)
    let mut phases: Vec<(usize, usize, Box<dyn Phase>)> = Vec::new();
    let mains = args.workload.main_phases();
    let mut kinds = vec![Kind::Construct, Kind::NnSens, Kind::Serve];
    kinds.sort_by_key(|k| !mains.contains(k));
    for (i, w) in kinds.into_iter().enumerate() {
        let main = mains.contains(&w);
        let src = Source(i);
        let n = |full: f64, companion: f64| if main { full } else { companion };
        let seed = args.seed;
        let threads = match w {
            Kind::Construct | Kind::NnSens => BUILD_THREADS,
            Kind::Serve => SERVE_THREADS,
        };
        let reps = if main { 1 } else { COMPANION_REPS };
        set_threads(threads);
        let phase: Box<dyn Phase> = match w {
            Kind::Construct => Box::new(construct::Construct::new(
                &mut ctx,
                seed,
                n(scale.construct_main, scale.construct_companion),
                src,
            )),
            Kind::NnSens => Box::new(nnsens::NnSens::new(
                &mut ctx,
                seed,
                n(scale.nn_main, scale.nn_companion),
                src,
            )),
            Kind::Serve => Box::new(serve::Serve::new(
                &mut ctx,
                seed,
                n(scale.serve_main, scale.serve_companion),
                src,
            )),
        };
        phases.push((threads, reps, phase));
    }

    // Timed rounds: every phase repeats in every round, so that each
    // metric's samples spread over the whole run rather than one stretch
    // of it. Rounds go on while another fits in `--seconds`.
    let timed = Instant::now();
    let mut rounds = 0usize;
    loop {
        let round = Instant::now();
        for (threads, reps, phase) in phases.iter_mut() {
            set_threads(*threads);
            phase.setup_rep(&mut ctx);
            for _ in 0..*reps {
                phase.rep(&mut ctx);
            }
        }
        rounds += 1;
        let spent = timed.elapsed().as_secs_f64();
        let last = round.elapsed().as_secs_f64();
        if rounds >= MIN_ROUNDS && spent + last > args.seconds {
            break;
        }
    }
    ctx.size("rounds", rounds as f64);
    if args.traced {
        for (threads, _, phase) in phases.iter_mut() {
            set_threads(*threads);
            phase.traced_extras(&mut ctx);
        }
    }
    let peak_rss_mb = proc_status_kb("VmHWM").map(|kb| kb / 1024.0);

    // Untimed correctness checks (they also cover the traced extras).
    for (threads, _, phase) in phases {
        set_threads(threads);
        phase.check(&mut ctx);
    }
    let wall = started.elapsed().as_secs_f64();

    let setup_s: f64 = ctx.setup.iter().map(|(_, v)| median(v)).sum();
    if args.traced {
        ctx.add(
            Source::FIRST,
            "unattributed_share",
            "fraction",
            ctx.tr.unattributed_share(wall),
        );
    } else {
        ctx.add(Source::FIRST, "setup_s", "s", setup_s);
        if let Some(mb) = peak_rss_mb {
            ctx.add(Source::FIRST, "peak_rss_mb", "MB", mb);
        }
    }

    let failed_checks = ctx.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let attempted = ctx.ops_attempted + ctx.checks.len() as u64;
    let failed = ctx.ops_failed + failed_checks;

    let meta = metadata(&args, &ctx, wall, setup_s, peak_rss_mb);
    println!("{{\"meta\":{meta}}}");

    if args.traced {
        let path = format!(
            "perfbench/out/trace-{}-{}.json",
            args.workload_name, args.seed
        );
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, ctx.tr.to_chrome_json(&meta)) {
            eprintln!("perfbench: cannot write trace {path}: {e}");
            std::process::exit(3);
        }
        eprintln!("perfbench: trace written to {path}");
    }

    let mut metrics = String::new();
    for (i, (name, unit, value)) in ctx.metrics.medians().into_iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&name),
            json_num(value),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// The metadata line: host, build, settings, realised sizes and checks.
fn metadata(args: &Args, ctx: &Ctx, wall: f64, setup_s: f64, peak_rss_mb: Option<f64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut m = String::from("{");
    let _ = write!(
        m,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\
         \"nproc\":{nproc},\"cpu_model\":{},\"rayon_num_threads\":{{\"construct\":{BUILD_THREADS},\"nn-sens\":{BUILD_THREADS},\"serve\":{SERVE_THREADS}}},\"serve_readers\":{},\
         \"source_id\":{},\"profile\":\"release\",\"debug_assertions\":{},\
         \"wall_s\":{},\"setup_s\":{},\"peak_rss_mb\":{},\"sizes\":{{",
        json_str(&args.workload_name),
        args.seed,
        json_num(args.seconds),
        args.traced,
        json_str(if args.smoke { "smoke" } else { "full" }),
        json_str(&cpu_model()),
        serve::READERS,
        json_str(&args.source_id),
        cfg!(debug_assertions),
        json_num(wall),
        json_num(setup_s),
        peak_rss_mb.map_or("null".to_string(), json_num),
    );
    for (i, (k, v)) in ctx.sizes.iter().enumerate() {
        let _ = write!(
            m,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_num(*v)
        );
    }
    m.push_str("},\"checks\":{");
    for (i, (k, ok)) in ctx.checks.iter().enumerate() {
        let _ = write!(m, "{}{}:{ok}", if i > 0 { "," } else { "" }, json_str(k));
    }
    m.push_str("}}");
    m
}
