//! Training passes: `Trainer::train` untraced, or a step-by-step replay
//! of its loop from the same public calls with a span around each.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use matsciml::graph::graph_cache_stats;
use matsciml::obs::{Obs, Phase};
use matsciml::opt::{AdamW, AdamWConfig, InstabilityProbe, LrSchedule, WarmupExpDecay};
use matsciml::prelude::*;
use matsciml::tensor::pool_stats;
use matsciml::train::{
    collate_ranks, ddp_step_collated, load_infer_model, save_checkpoint, DdpConfig, DdpTapes,
    TrainProgress,
};
use perfbench::spans::{by_layer, Span, Trace};
use perfbench::{loss_digest, loss_violations, stats, StealMeter};

use crate::{Args, PassResult};

/// A pass repeats its set-up until this much time is spent (and at
/// least `MIN_SETUPS` times); `setup_s` is the median set-up.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUPS: u64 = 5;

/// Shape of one training workload.
pub struct Spec {
    hidden: usize,
    world: usize,
    per_rank: usize,
    /// `mp` (band gap) or `oc20` (adsorption energy).
    dataset: &'static str,
    corpus_size: usize,
    /// Store radius-graph edges in the shards (the loader then skips
    /// graph construction).
    precompute_edges: bool,
    readahead: usize,
    scale_lr_by_world: bool,
    /// Fewest steps a pass runs, however slow the host.
    min_steps: u64,
    /// Leading steps left out of steady-state figures.
    warm_steps: usize,
}

/// The training workloads.
pub fn spec(name: &str) -> Option<Spec> {
    match name {
        // Paper shape: hidden-256 E(n)-GNN, world 4, per-rank batch 2,
        // MP shards with precomputed edges, read-ahead 1.
        "train-paper" => Some(Spec {
            hidden: 256,
            world: 4,
            per_rank: 2,
            dataset: "mp",
            corpus_size: 512,
            precompute_edges: true,
            readahead: 1,
            scale_lr_by_world: true,
            min_steps: 40,
            warm_steps: 10,
        }),
        // Overhead-bound: hidden 32, world 16, raw-edge OC20 shards whose
        // graphs are built on load and cached from the second epoch on.
        // The world-scaled LR diverges here, so this uses the CLI's
        // `--constant-lr` recipe.
        "train-small-w16" => Some(Spec {
            hidden: 32,
            world: 16,
            per_rank: 2,
            dataset: "oc20",
            corpus_size: 320,
            precompute_edges: false,
            readahead: 0,
            scale_lr_by_world: false,
            min_steps: 100,
            warm_steps: 12,
        }),
        _ => None,
    }
}

impl Spec {
    fn batch(&self) -> usize {
        self.world * self.per_rank
    }

    fn target(&self) -> TargetKind {
        if self.dataset == "mp" {
            TargetKind::BandGap
        } else {
            TargetKind::Energy
        }
    }

    /// The run configuration `Trainer::train` gets (the CLI's defaults
    /// for `train` plus this workload's shape).
    pub fn config(&self, steps: u64, seed: u64) -> TrainConfig {
        TrainConfig {
            world_size: self.world,
            per_rank_batch: self.per_rank,
            steps,
            base_lr: 1e-3,
            scale_lr_by_world: self.scale_lr_by_world,
            eval_every: 0,
            clip_norm: Some(10.0),
            seed,
            readahead_threads: self.readahead,
            ..Default::default()
        }
    }

    /// Write this workload's corpus into `dir`.
    pub fn write_corpus(&self, seed: u64, dir: &Path) -> Result<(), String> {
        let ds: Box<dyn Dataset> = match self.dataset {
            "mp" => Box::new(SyntheticMaterialsProject::new(self.corpus_size, seed)),
            _ => Box::new(SyntheticOc20::new(self.corpus_size, seed)),
        };
        let opts = CorpusWriteOptions::default();
        let written = if self.precompute_edges {
            let p = Compose::standard(4.5, Some(12));
            write_corpus_iter((0..ds.len()).map(|i| p.apply(ds.sample(i))), dir, opts)
        } else {
            write_corpus(ds.as_ref(), dir, opts)
        };
        written
            .map(|_| ())
            .map_err(|e| format!("corpus write: {e}"))
    }

    /// The model `matsciml-cli train` builds for this shape.
    pub fn model(&self, ds: &dyn Dataset, seed: u64) -> TaskModel {
        let head =
            TaskHeadConfig::regression(ds.sample(0).dataset, self.target(), 2 * self.hidden, 3);
        let head = match target_stats(ds, self.target(), 256) {
            Some((mu, sigma)) => head.with_normalization(mu, sigma),
            None => head,
        };
        TaskModel::egnn(EgnnConfig::small(self.hidden), &[head], seed)
    }
}

/// A point in a run: wall-clock time and the process's CPU time (ns).
#[derive(Clone, Copy)]
pub struct Stamp {
    pub at: Instant,
    pub cpu_ns: u64,
}

impl Stamp {
    /// Stamp the present moment.
    pub fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            cpu_ns: perfbench::process_cpu_ns(),
        }
    }
}

/// A dataset that stamps every `sample` call. Batches are requested in
/// schedule order at the start of each step (synchronously, or by the
/// single read-ahead worker), so the gaps between batches' first stamps
/// are the steps of an otherwise untouched `Trainer::train`.
struct Stamped<'a> {
    inner: &'a dyn Dataset,
    stamps: Mutex<Vec<Stamp>>,
}

impl Dataset for Stamped<'_> {
    fn id(&self) -> DatasetId {
        self.inner.id()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sample(&self, index: usize) -> Sample {
        self.stamps
            .lock()
            .expect("stamp lock poisoned")
            .push(Stamp::now());
        self.inner.sample(index)
    }
}

/// Mean validation loss of `model` over the whole held-out split.
pub fn val_loss(model: &TaskModel, ds: &dyn Dataset, pipeline: &Compose, seed: u64) -> f64 {
    let val = DataLoader::new(ds, Some(pipeline), Split::Val, 0.2, 16, seed);
    let trainer = Trainer::new(TrainConfig {
        eval_batches: usize::MAX,
        ..Default::default()
    });
    trainer
        .evaluate(model, &val, 0)
        .get("loss")
        .map_or(f64::NAN, f64::from)
}

fn vm_hwm_mb() -> f64 {
    perfbench::proc_status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// The step count that fills `args.seconds` on this host, from a short
/// `Trainer::train` run of a throwaway model on the same data (which
/// also leaves the process warm, as a long-running trainer would be).
fn calibrate(spec: &Spec, ds: &dyn Dataset, pipeline: &Compose, args: &Args) -> u64 {
    let probe_steps = 3 * spec.warm_steps as u64;
    let stamped = Stamped {
        inner: ds,
        stamps: Mutex::new(Vec::new()),
    };
    let loader = DataLoader::new(
        &stamped,
        Some(pipeline),
        Split::Train,
        0.2,
        spec.batch(),
        args.seed,
    );
    let mut model = spec.model(ds, args.seed ^ 0xCA1B);
    Trainer::new(spec.config(probe_steps, args.seed)).train(&mut model, &loader, None);
    let starts = step_starts(stamped, spec.batch());
    let gaps: Vec<f64> = starts
        .windows(2)
        .skip(2 * spec.warm_steps)
        .map(|w| (w[1].at - w[0].at).as_secs_f64())
        .collect();
    let per_step = stats::median(&gaps);
    ((args.seconds / per_step).round() as u64).max(spec.min_steps)
}

/// The first stamp of every batch.
fn step_starts(stamped: Stamped<'_>, batch: usize) -> Vec<Stamp> {
    stamped
        .stamps
        .into_inner()
        .expect("stamp lock poisoned")
        .into_iter()
        .step_by(batch)
        .collect()
}

/// One training pass of `args.workload`.
pub fn run(args: &Args) -> Result<PassResult, String> {
    let spec = spec(&args.workload)
        .ok_or_else(|| format!("unknown training workload `{}`", args.workload))?;
    let mut r = PassResult::default();

    // Set-up, repeated: corpus write, corpus open, model build. Each
    // writes distinct structures, the last those of the workload seed, so
    // no set-up is served from an earlier one's graph cache.
    let mut setups = Vec::new();
    let mut corpus_ms = Vec::new();
    let started = Instant::now();
    let (ds, mut model) = loop {
        let k = setups.len() as u64;
        let last = k + 1 >= MIN_SETUPS && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        let dir = args.workdir.join(if last {
            "corpus".into()
        } else {
            format!("corpus-{k}")
        });
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let seed = if last {
            args.seed
        } else {
            args.seed.wrapping_add((k + 1) << 32)
        };
        spec.write_corpus(seed, &dir)?;
        corpus_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ds = StreamingDataset::open(&dir).map_err(|e| format!("corpus open: {e}"))?;
        let model = spec.model(&ds, args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        if last {
            break (ds, model);
        }
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    };
    r.set("setup_s", stats::median(&setups));
    r.set("datasets.corpus_write_ms", stats::median(&corpus_ms));
    r.counts.insert("setups".into(), setups.len() as f64);
    let pipeline = Compose::standard(4.5, Some(12));
    let steps = match args.steps {
        Some(n) => n,
        None => calibrate(&spec, &ds, &pipeline, args),
    };
    r.steps = steps;
    let cfg = spec.config(steps, args.seed);

    let steal = StealMeter::start();
    let (losses, starts, opt) = if args.traced {
        let mut trace = Trace::new();
        let loader = DataLoader::new(
            &ds,
            Some(&pipeline),
            Split::Train,
            0.2,
            spec.batch(),
            args.seed,
        );
        let out = replay(
            &mut model,
            &ds,
            &pipeline,
            &loader,
            &cfg,
            Some(&mut trace),
            spec.warm_steps as u64,
        );
        layer_metrics(&mut r, trace.spans(), spec.warm_steps as u64, &out.counters);
        write_trace(&trace, &args.workdir);
        (out.losses, out.starts, Some(out.opt))
    } else {
        let stamped = Stamped {
            inner: &ds,
            stamps: Mutex::new(Vec::new()),
        };
        let loader = DataLoader::new(
            &stamped,
            Some(&pipeline),
            Split::Train,
            0.2,
            spec.batch(),
            args.seed,
        );
        let log = Trainer::new(cfg.clone()).train(&mut model, &loader, None);
        let losses = log
            .records
            .iter()
            .map(|rec| rec.train.get("loss").unwrap_or(f32::NAN))
            .collect();
        let starts = step_starts(stamped, spec.batch());
        (losses, starts[spec.warm_steps..].to_vec(), None)
    };
    let steal = steal.share();

    // Every step's loss must be finite.
    r.attempted = losses.len() as u64;
    for msg in loss_violations(&losses, steps) {
        r.fail(msg);
    }
    r.digest = format!("{:016x}", loss_digest(&losses));
    steady_state(&mut r, &starts, spec.batch(), steal);
    r.set("peak_rss_mb", vm_hwm_mb());

    // After the timed window: held-out loss, then the checkpoint a user
    // would keep.
    let vl = val_loss(&model, &ds, &pipeline, args.seed);
    if !vl.is_finite() {
        r.fail(format!("validation loss {vl}"));
    }
    r.set("val_loss", vl);
    if let Some(opt) = opt {
        let (save_ms, load_ms) =
            checkpoint_roundtrip(&model, &opt, &cfg, steps, &args.workdir.join("final.mckpt"))?;
        r.set("ckpt.save_ms", save_ms);
        r.set("ckpt.load_ms", load_ms);
    }
    Ok(r)
}

/// Steady-state figures from the stamps at the start of consecutive
/// steps (the last stamp starts a step that is not counted). Steps are
/// grouped into windows of about a second, and each rate is the median
/// window's. `train.cpu_ms_per_sample` counts the CPU time of every
/// thread of the process, so it does not move when the hypervisor gives
/// this machine's CPUs to other guests; the wall-clock figures do, and
/// the share of CPU time stolen while they were measured is reported
/// next to them.
fn steady_state(r: &mut PassResult, starts: &[Stamp], batch: usize, steal: f64) {
    let step_ms: Vec<f64> = starts
        .windows(2)
        .map(|w| (w[1].at - w[0].at).as_secs_f64() * 1e3)
        .collect();
    let per_window = ((1e3 / stats::median(&step_ms)).round() as usize).max(5);
    let windows: Vec<(Stamp, Stamp)> = starts
        .iter()
        .step_by(per_window)
        .zip(starts.iter().skip(per_window).step_by(per_window))
        .map(|(a, b)| (*a, *b))
        .collect();
    let samples = (batch * per_window) as f64;
    let wall: Vec<f64> = windows
        .iter()
        .map(|(a, b)| samples / (b.at - a.at).as_secs_f64())
        .collect();
    let cpu: Vec<f64> = windows
        .iter()
        .map(|(a, b)| (b.cpu_ns - a.cpu_ns) as f64 / 1e6 / samples)
        .collect();
    let sum = stats::summarize(&step_ms);
    r.set("train.cpu_ms_per_sample", stats::quantile(&cpu, 0.25));
    r.set("train.samples_per_s", stats::median(&wall));
    r.set("train.step_p50_ms", sum.p50);
    r.set("train.step_tail_ms", sum.tail);
    r.counts.insert("windows".into(), windows.len() as f64);
    r.counts.insert("steps_timed".into(), sum.count as f64);
    r.counts.insert("tail_pct".into(), sum.tail_pct);
    r.counts.insert("steal_share".into(), steal);
}

/// Save `model` with its optimizer state and load it back for serving;
/// returns both times in ms.
fn checkpoint_roundtrip(
    model: &TaskModel,
    opt: &AdamW,
    cfg: &TrainConfig,
    step: u64,
    path: &Path,
) -> Result<(f64, f64), String> {
    let progress = TrainProgress {
        step,
        best_metric: f32::INFINITY,
        evals_without_improvement: 0,
    };
    let t0 = Instant::now();
    save_checkpoint(
        path,
        model,
        &opt.export_state(),
        cfg,
        progress,
        &Obs::disabled(),
    )
    .map_err(|e| format!("checkpoint save: {e}"))?;
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let loaded = load_infer_model(path).map_err(|e| format!("checkpoint load: {e}"))?;
    let load_ms = t1.elapsed().as_secs_f64() * 1e3;
    if loaded.model.params.num_scalars() != model.params.num_scalars() {
        return Err("checkpoint load returned a different parameter count".into());
    }
    Ok((save_ms, load_ms))
}

/// Per-step counts read from the toolkit's own counters during a replay.
#[derive(Default, Clone)]
pub struct StepCounts {
    pub pool_misses: u64,
    pub pool_fresh_bytes: u64,
    pub grad_bytes: u64,
    pub tape_nodes: u64,
    pub graph_cache_hits: u64,
    pub graph_cache_lookups: u64,
}

/// What a replay produced.
pub struct Replay {
    pub losses: Vec<f32>,
    /// Start time of each step after the warm steps, then the end of
    /// the last step.
    pub starts: Vec<Stamp>,
    pub opt: AdamW,
    pub counters: Vec<StepCounts>,
}

/// `Trainer::train`'s step loop, replayed from the same public calls:
/// `Dataset::sample` → `Compose::apply` → `collate_ranks` →
/// `ddp_step_collated` → probe, clip, `WarmupExpDecay` and
/// `AdamW::step`. With `trace`, each call gets a span (step id as the
/// span id), and the forward/backward/allreduce split that
/// `ddp_step_collated` writes into its `Obs` becomes child spans of the
/// DDP span. The loss sequence is bit-identical to `Trainer::train` on
/// the same configuration.
pub fn replay(
    model: &mut TaskModel,
    ds: &dyn Dataset,
    pipeline: &Compose,
    loader: &DataLoader<'_>,
    cfg: &TrainConfig,
    mut trace: Option<&mut Trace>,
    warm_steps: u64,
) -> Replay {
    let steps_per_epoch = loader.batches_per_epoch() as u64;
    let peak = if cfg.scale_lr_by_world {
        cfg.base_lr * cfg.world_size as f32
    } else {
        cfg.base_lr
    };
    let schedule = WarmupExpDecay {
        peak_lr: peak,
        warmup_steps: cfg.warmup_epochs * steps_per_epoch,
        steps_per_epoch,
        gamma: cfg.gamma,
    };
    let mut opt = AdamW::new(
        &model.params,
        AdamWConfig {
            lr: cfg.base_lr,
            eps: cfg.eps,
            weight_decay: cfg.weight_decay,
            ..Default::default()
        },
    );
    let ddp = DdpConfig {
        world_size: cfg.world_size,
        per_rank_batch: cfg.per_rank_batch,
        parallel: cfg.parallel_ranks,
        seed: cfg.seed,
    };
    let mut probe = InstabilityProbe::new(16, 3.0);
    let mut tapes = DdpTapes::new();
    let obs = if trace.is_some() {
        Obs::null()
    } else {
        Obs::disabled()
    };
    let mut out = Replay {
        losses: Vec::new(),
        starts: Vec::new(),
        opt: AdamW::new(&model.params, AdamWConfig::default()),
        counters: Vec::new(),
    };
    let mut step = 0u64;
    'epochs: for epoch in 0.. {
        for batch_idx in loader.epoch_batches(epoch) {
            if step >= cfg.steps {
                break 'epochs;
            }
            let t_step = Stamp::now();
            let pool0 = pool_stats();
            let cache0 = graph_cache_stats();
            let grad0 = obs.counter("comm/grad_bytes");
            let root = trace.as_mut().map(|t| t.open("train.step", None, step));
            let timed = |name: &'static str, trace: &mut Option<&mut Trace>| {
                trace.as_mut().map(|t| t.open(name, root, step))
            };
            let samples: Vec<Sample> = batch_idx
                .iter()
                .map(|&i| {
                    let s = timed("datasets.decode", &mut trace);
                    let raw = ds.sample(i);
                    close(&mut trace, s);
                    let s = timed("graph.build", &mut trace);
                    let sample = pipeline.apply(raw);
                    close(&mut trace, s);
                    sample
                })
                .collect();
            let s = timed("train.collate", &mut trace);
            let batches = collate_ranks(&samples, cfg.per_rank_batch);
            close(&mut trace, s);
            let s = timed("opt.zero_grads", &mut trace);
            model.params.zero_grads();
            close(&mut trace, s);
            let s = timed("train.ddp", &mut trace);
            let metrics = ddp_step_collated(model, &batches, &ddp, step, &obs, &mut tapes);
            close(&mut trace, s);
            if let (Some(t), Some(s)) = (trace.as_mut(), s) {
                phase_children(t, s, &obs, step);
            }
            let loss = metrics.get("loss").unwrap_or(f32::NAN);
            let s = timed("opt.probe", &mut trace);
            probe.observe(loss, &model.params);
            close(&mut trace, s);
            let s = timed("opt.clip", &mut trace);
            match cfg.clip_norm {
                Some(max) => model.params.clip_grad_norm(max),
                None => model.params.grad_norm(),
            };
            close(&mut trace, s);
            let s = timed("opt.adamw", &mut trace);
            opt.set_lr(schedule.lr(step));
            opt.step(&mut model.params);
            close(&mut trace, s);
            close(&mut trace, root);
            if step >= warm_steps {
                out.starts.push(t_step);
            }
            if trace.is_some() {
                let pool = pool_stats().since(&pool0);
                let cache = graph_cache_stats().since(&cache0);
                out.counters.push(StepCounts {
                    graph_cache_hits: cache.hits,
                    graph_cache_lookups: cache.hits + cache.misses,
                    pool_misses: pool.misses,
                    pool_fresh_bytes: pool.bytes_fresh,
                    grad_bytes: obs.counter("comm/grad_bytes") - grad0,
                    tape_nodes: tapes.tape_nodes() as u64,
                });
            }
            out.losses.push(loss);
            step += 1;
        }
    }
    out.starts.push(Stamp::now());
    out.opt = opt;
    out
}

fn close(trace: &mut Option<&mut Trace>, span: Option<usize>) {
    if let (Some(t), Some(s)) = (trace.as_mut(), span) {
        t.close(s);
    }
}

/// Lay the step's forward, backward and allreduce time (as apportioned
/// by `ddp_step_collated` into `obs`) out as consecutive child spans of
/// the DDP span.
fn phase_children(t: &mut Trace, ddp: usize, obs: &Obs, step: u64) {
    let mut at = t.spans()[ddp].start;
    for (name, phase) in [
        ("models.forward", Phase::Forward),
        ("autograd.backward", Phase::Backward),
        ("nn.allreduce", Phase::Allreduce),
    ] {
        let ns = obs.take_phase_us(phase) * 1_000;
        t.record(Span {
            name,
            start: at,
            end: at + ns,
            parent: Some(ddp),
            id: step,
        });
        at += ns;
    }
}

/// Per-layer metrics from a replay's spans and counters, over the steps
/// after the warm steps: self time per step (µs) and per-step counts.
pub fn layer_metrics(r: &mut PassResult, spans: &[Span], warm_steps: u64, counters: &[StepCounts]) {
    // Re-index parents into the filtered list (spans of one step are
    // contiguous, so a parent always precedes its children).
    let mut remap = vec![usize::MAX; spans.len()];
    let mut kept = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        if s.id >= warm_steps {
            remap[i] = kept.len();
            kept.push(Span {
                parent: s.parent.map(|p| remap[p]),
                ..s.clone()
            });
        }
    }
    let layers = by_layer(&kept);
    let steps = layers.get("train.step").map_or(0, |l| l.calls).max(1) as f64;
    let per_step_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e3 / steps)
    };
    let step_us: f64 = kept
        .iter()
        .filter(|s| s.name == "train.step")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .sum::<f64>()
        / steps;
    for (metric, layer) in [
        ("datasets.decode_us", "datasets.decode"),
        ("graph.build_us", "graph.build"),
        ("collate.us", "train.collate"),
        ("models.forward_us", "models.forward"),
        ("autograd.backward_us", "autograd.backward"),
        ("nn.allreduce_us", "nn.allreduce"),
        ("opt.probe_us", "opt.probe"),
        ("opt.clip_us", "opt.clip"),
        ("opt.adamw_us", "opt.adamw"),
    ] {
        r.set(metric, per_step_us(layer));
    }
    // The DDP span's total: its own glue plus the three phases.
    let ddp_us: f64 = kept
        .iter()
        .filter(|s| s.name == "train.ddp")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .sum::<f64>()
        / steps;
    r.set("ddp.step_us", ddp_us);
    let opt_us = ["opt.zero_grads", "opt.probe", "opt.clip", "opt.adamw"]
        .iter()
        .map(|l| per_step_us(l))
        .sum::<f64>();
    r.set("opt.step_share", opt_us / step_us);
    let c: Vec<&StepCounts> = counters.iter().skip(warm_steps as usize).collect();
    let n = c.len().max(1) as f64;
    r.set(
        "tensor.pool_misses_per_step",
        c.iter().map(|x| x.pool_misses as f64).sum::<f64>() / n,
    );
    r.set(
        "tensor.pool_fresh_mb_per_step",
        c.iter().map(|x| x.pool_fresh_bytes as f64).sum::<f64>() / n / 1e6,
    );
    r.set(
        "nn.grad_bytes_per_step",
        c.iter().map(|x| x.grad_bytes as f64).sum::<f64>() / n,
    );
    let lookups: u64 = c.iter().map(|x| x.graph_cache_lookups).sum();
    let hits: u64 = c.iter().map(|x| x.graph_cache_hits).sum();
    r.set(
        "graph.cache_hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    r.set(
        "autograd.tape_nodes",
        c.iter().map(|x| x.tape_nodes as f64).sum::<f64>() / n,
    );
    print_table(&layers, steps, "step");
}

/// The per-layer self-time table, on stderr.
pub fn print_table(
    layers: &std::collections::BTreeMap<&'static str, perfbench::spans::LayerTotal>,
    units: f64,
    unit: &str,
) {
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    eprintln!("per-layer self time ({} {unit}s):", units);
    eprintln!(
        "  {:<20} {:>10} {:>14} {:>7}",
        "layer",
        "calls",
        format!("us/{unit}"),
        "share"
    );
    for (name, l) in layers {
        eprintln!(
            "  {:<20} {:>10} {:>14.1} {:>6.1}%",
            name,
            l.calls,
            l.self_ns as f64 / 1e3 / units,
            100.0 * l.self_ns as f64 / total.max(1) as f64
        );
    }
}

/// Keep the spans of the last traced pass as `spans.jsonl` in the workdir.
pub fn write_trace(trace: &Trace, workdir: &Path) {
    let path = workdir.join("spans.jsonl");
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        trace.write_jsonl(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), trace.spans().len()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
