//! In-memory span recording for the traced run.
//!
//! Each worker thread owns a [`Recorder`]; spans are plain records kept in a
//! `Vec` and merged into a [`Trace`] when the workers finish, so recording
//! costs two clock reads and a push. The merged trace is written to disk once,
//! when the benchmark exits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cpu.ooo.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span within the same [`Trace`].
    pub parent: Option<usize>,
    /// The unit of work (campaign job or die) the span belongs to.
    pub unit: u64,
    /// Work the call did: instructions, accesses, maps, ...
    pub count: u64,
    /// Worker thread that recorded the span.
    pub worker: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    worker: usize,
    unit: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, worker: usize) -> Self {
        Self {
            origin,
            worker,
            unit: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
            count: 0,
            worker: self.worker,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize, count: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.count = count;
    }

    /// Times `f` as one span of `count` work items.
    pub fn time<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let out = f();
        self.exit(span, count);
        out
    }
}

/// The spans of one workload kind, merged across workers and repetitions.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Summed duration and work of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub ns: u64,
    pub count: u64,
    pub calls: u64,
}

impl Trace {
    /// Appends a finished recorder's spans, re-basing their parent indices.
    pub fn absorb(&mut self, recorder: Recorder) {
        assert!(recorder.open.is_empty(), "recorder still has open spans");
        let offset = self.spans.len();
        self.spans.extend(recorder.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn total(&self, name: &str) -> Total {
        let mut t = Total::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.ns += s.duration_ns();
            t.count += s.count;
            t.calls += 1;
        }
        t
    }

    /// Durations in nanoseconds of every span named `unit_name`, each minus
    /// the time its direct children named in `exclude` took.
    pub fn self_durations(&self, unit_name: &str, exclude: &[&str]) -> Vec<u64> {
        let mut excluded: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let (Some(p), true) = (s.parent, exclude.contains(&s.name)) {
                *excluded.entry(p).or_default() += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == unit_name)
            .map(|(i, s)| {
                s.duration_ns()
                    .saturating_sub(excluded.get(&i).copied().unwrap_or(0))
            })
            .collect()
    }
}

/// Runs `f` over `jobs` on `workers` threads that pull jobs from a shared
/// queue, each recording spans with its own [`Recorder`] (job `i` gets unit
/// id `unit_base + i`). Returns the outputs in job order and adds every
/// span to `trace`.
pub fn run_queue<J: Sync, R: Send>(
    jobs: &[J],
    workers: usize,
    origin: Instant,
    unit_base: u64,
    trace: &mut Trace,
    f: impl Fn(&mut Recorder, &J) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let (next, slots, f) = (&next, &slots, &f);
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, w);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        rec.set_unit(unit_base + i as u64);
                        let out = f(&mut rec, job);
                        *slots[i].lock().expect("a worker panicked holding a slot") = Some(out);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    for rec in recorders {
        trace.absorb(rec);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a worker panicked holding a slot")
                .expect("every job ran")
        })
        .collect()
}

/// Writes every kind's spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, traces: &[(&str, &Trace)]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for (kind, trace) in traces {
        for (i, s) in trace.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"{kind}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"unit\":{},\"count\":{},\"worker\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit, s.count, s.worker
            );
        }
    }
    std::fs::write(path, out)
}
