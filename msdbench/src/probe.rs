//! What the benchmark binary reads about itself: a counting global
//! allocator, `/proc` counters, the host's steal over a run, set-up
//! timing, the host record, and the in-memory span log of a traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting allocations and requested bytes of every
/// thread while at least one [`counted`] scope is open. Outside a scope the
/// only cost is one relaxed load per allocation.
pub struct CountingAlloc;

static OPEN_SCOPES: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if OPEN_SCOPES.load(Relaxed) > 0 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    /// A reallocation counts as one allocation of the new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with allocation counting on and returns how many allocations
/// every thread made meanwhile. Scopes nest; counts are process-wide, so a caller
/// that wants per-request counts keeps one request in flight.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    OPEN_SCOPES.fetch_add(1, Relaxed);
    let before = ALLOCS.load(Relaxed);
    let out = f();
    let allocs = ALLOCS.load(Relaxed) - before;
    OPEN_SCOPES.fetch_sub(1, Relaxed);
    (out, allocs)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// Linux ABI this builds for).
const USER_HZ: f64 = 100.0;

/// Counters of `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub user_s: f64,
    pub sys_s: f64,
    pub threads: u64,
}

/// Reads `/proc/self/stat`; zeros where the file is unavailable. Makes no
/// heap allocation, so spans can read it inside a counted scope.
pub fn proc_stat() -> ProcStat {
    use std::io::Read as _;
    let mut buf = [0u8; 1024];
    let n = std::fs::File::open("/proc/self/stat")
        .and_then(|mut f| f.read(&mut buf))
        .unwrap_or(0);
    // Fields after the parenthesised command name, which may hold spaces;
    // the first of them is field 3 (state).
    let close = buf[..n].iter().rposition(|&b| b == b')').unwrap_or(n);
    let mut fields = buf[close.min(n)..n]
        .split(|&b| b == b' ')
        .filter(|f| !f.is_empty())
        .skip(1);
    let mut field = |skip: usize| -> u64 {
        fields
            .nth(skip)
            .and_then(|f| std::str::from_utf8(f).ok())
            .and_then(|f| f.trim().parse().ok())
            .unwrap_or(0)
    };
    // Fields 10 (minflt), 14 (utime), 15 (stime), 20 (num_threads).
    let minor_faults = field(10 - 3);
    let user = field(14 - 11);
    let sys = field(0);
    let threads = field(20 - 16);
    ProcStat {
        minor_faults,
        user_s: user as f64 / USER_HZ,
        sys_s: sys as f64 / USER_HZ,
        threads,
    }
}

/// The process high-water resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in ticks; zeros where the file is unavailable. Makes
/// no heap allocation.
pub fn host_cpu() -> (u64, u64) {
    use std::io::Read as _;
    let mut buf = [0u8; 512];
    let n = std::fs::File::open("/proc/stat")
        .and_then(|mut f| f.read(&mut buf))
        .unwrap_or(0);
    let line = buf[..n].split(|&b| b == b'\n').next().unwrap_or(&[]);
    // cpu user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let (mut steal, mut total) = (0, 0);
    let ticks = line
        .split(|&b| b == b' ')
        .filter(|f| !f.is_empty())
        .skip(1)
        .take(8)
        .map(|f| {
            std::str::from_utf8(f)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        });
    for (i, t) in ticks.enumerate() {
        total += t;
        if i == 7 {
            steal = t;
        }
    }
    (steal, total)
}

/// Process and host counters at one instant, for deltas over a run.
pub struct Sample {
    stat: ProcStat,
    host: (u64, u64),
}

impl Sample {
    pub fn now() -> Self {
        Self {
            stat: proc_stat(),
            host: host_cpu(),
        }
    }

    /// The diagnostic `proc.*` CPU and fault counts and `host.steal_share`
    /// from `self` until now.
    pub fn metrics_since(&self, out: &mut Metrics) {
        let now = Sample::now();
        out.set("proc.user_s", now.stat.user_s - self.stat.user_s);
        out.set("proc.sys_s", now.stat.sys_s - self.stat.sys_s);
        out.set(
            "proc.minor_faults",
            (now.stat.minor_faults - self.stat.minor_faults) as f64,
        );
        out.set("host.steal_share", self.steal_share(&now));
    }

    fn steal_share(&self, later: &Sample) -> f64 {
        let steal = later.host.0.saturating_sub(self.host.0) as f64;
        let total = later.host.1.saturating_sub(self.host.1) as f64;
        if total > 0.0 {
            steal / total
        } else {
            0.0
        }
    }
}

/// The set-ups of a run, each timed; `setup_s` is the mean of the
/// fastest fifth of them (see [`crate::stats::fastest`]).
#[derive(Default)]
pub struct Setups {
    secs: Vec<f64>,
}

impl Setups {
    /// Times one set-up.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = set_up();
        self.secs.push(t0.elapsed().as_secs_f64());
        out
    }

    pub fn fast(&self) -> f64 {
        crate::stats::fast_mean(&self.secs, &self.secs)
    }

    pub fn describe(&self) -> String {
        format!("set-ups {:?} s", self.secs)
    }
}

/// Named metric values a workload produces, in insertion order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets (or replaces) `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// One recorded span: a call into a layer, made by the benchmark.
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by the spans of one op (request, step or push).
    pub op: u64,
    /// Enclosing span's index in the log, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub minor_faults: u64,
}

/// The in-memory span log of a traced run, written out when it ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Reserved up front so recording a span inside a counted scope
            // does not itself allocate.
            spans: Vec::with_capacity(1 << 15),
        }
    }

    /// Nanoseconds since the log was opened.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span counting allocations and minor faults until
    /// [`SpanLog::close`]; returns its index for children and for `close`.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let faults = proc_stat().minor_faults;
        let idx = self.push(Span {
            name,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
            minor_faults: faults,
        });
        OPEN_SCOPES.fetch_add(1, Relaxed);
        let span = &mut self.spans[idx];
        span.allocs = ALLOCS.load(Relaxed);
        span.bytes = BYTES.load(Relaxed);
        span.start_ns = self.origin.elapsed().as_nanos() as u64;
        idx
    }

    /// Closes the span `idx` opened.
    pub fn close(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
        OPEN_SCOPES.fetch_sub(1, Relaxed);
        let faults = proc_stat().minor_faults;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
        span.minor_faults = faults - span.minor_faults;
    }

    /// Records a span around `f` with allocation and fault counts.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, op, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Appends `(op, start, end)` calls as spans called `name`.
    pub fn add_calls(
        &mut self,
        name: &'static str,
        calls: impl Iterator<Item = (u64, Instant, Instant)>,
    ) {
        for (op, t0, t1) in calls {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            let span = Span {
                name,
                op,
                parent: None,
                start_ns: ns(t0),
                end_ns: ns(t1),
                allocs: 0,
                bytes: 0,
                minor_faults: 0,
            };
            self.push(span);
        }
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes the log as tab-separated rows under `.bench_out/`, returning
    /// the path.
    pub fn write(&self, stem: &str) -> std::io::Result<String> {
        let mut out =
            String::from("name\top\tparent\tstart_ns\tend_ns\tallocs\tbytes\tminor_faults\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs, s.bytes, s.minor_faults
            );
        }
        std::fs::create_dir_all(".bench_out")?;
        let path = format!(".bench_out/{stem}.tsv");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// The host and build record printed beside the metrics.
pub fn host_record() -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("kernel tier: {}", msd_tensor::ops::kernels::tier().name()),
        format!("intra-op threads: {}", msd_tensor::pool::num_threads()),
        format!("nproc: {nproc}"),
        format!("cpu: {cpu}"),
        format!("git revision: {}", git_revision()),
        format!("load average: {load}"),
    ]
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree without `.git` reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Records the process's live thread count as `proc.threads`; workloads
/// call it at the end of their measured phase, before shutting down.
pub fn note_threads(out: &mut Metrics) {
    out.set("proc.threads", proc_stat().threads as f64);
}
