//! Wall-clock timing, order statistics, the shard worker pool and the
//! process figures every result carries.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// A running wall clock. The only place the benchmark reads real time.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    // Wall time is what this benchmark measures; it never feeds
    // simulation state.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Clock {
        // detlint::allow(wall-clock): the benchmark's one timing primitive; readings go to the report only
        Clock(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Time `f`, returning its value and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let clock = Clock::start();
    let out = f();
    (out, clock.secs())
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the middle half of a sample: the quarter of values at
/// each end are dropped (none when there are fewer than four).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "mean of an empty sample");
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The highest percentile of a timing sample that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` when the sample is
/// too small for any (fewer than 20 values).
pub fn tail_percentile(seconds: &[f64]) -> Option<(u32, f64)> {
    let n = seconds.len();
    let mut v = seconds.to_vec();
    v.sort_by(f64::total_cmp);
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .map(|p| {
            let rank = (p as usize * n).div_ceil(100).max(1) - 1;
            (p, v[rank])
        })
}

/// Worker threads a `shards`-way run gets: the program's runner uses one
/// per shard, at most one per core.
pub fn workers(shards: u32) -> u32 {
    nproc().min(shards).max(1)
}

pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Run `job(shard)` for every shard of a `shards`-way partition on
/// [`workers`] threads, striding shards across workers the way the
/// program's own sharded runner does (worker `w` takes `w, w + workers,
/// …`), and return the outputs in shard order.
pub fn on_workers<T: Send>(shards: u32, job: impl Fn(u32) -> T + Sync) -> Vec<T> {
    let workers = workers(shards);
    let slots: Vec<Mutex<Option<T>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (job, slots) = (&job, &slots);
            // detlint::allow(ad-hoc-spawn): mirrors the sharded runner's pool so traced shard passes run in parallel like untraced ones; outputs are stored by shard index
            scope.spawn(move || {
                for shard in (w..shards).step_by(workers as usize) {
                    let out = job(shard);
                    *slots[shard as usize].lock().expect("no job panicked") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no job panicked")
                .expect("every shard ran")
        })
        .collect()
}

/// Hand the allocator's free memory back to the system, so that the next
/// world generation faults in fresh pages as a first generation in a new
/// process does, instead of sometimes reusing the last world's pages and
/// sometimes not.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time from any thread; it only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory: a loose or packed branch ref, or a detached head, also
/// when `.git` is a file naming the repository (a worktree). Anything
/// else, and checkouts that are not git repositories, read `unknown`.
pub fn git_revision() -> String {
    head_revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn head_revision(dot_git: &Path) -> Option<String> {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let dir = if dot_git.is_file() {
        PathBuf::from(read(dot_git)?.trim().strip_prefix("gitdir: ")?)
    } else {
        dot_git.to_path_buf()
    };
    // A worktree keeps its HEAD apart from the refs it shares.
    let common = match read(&dir.join("commondir")) {
        Some(c) => dir.join(c.trim()),
        None => dir.clone(),
    };
    let head = read(&dir.join("HEAD"))?;
    let revision = match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(reference) => match read(&common.join(reference)) {
            Some(loose) => loose.trim().to_string(),
            None => read(&common.join("packed-refs"))?.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })?,
        },
    };
    let is_id = revision.len() >= 40 && revision.bytes().all(|b| b.is_ascii_hexdigit());
    is_id.then_some(revision)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit of the measured value.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}
