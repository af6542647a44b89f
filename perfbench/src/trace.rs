//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (outside-in), kept in memory, and written out once the run ends, so
//! nothing wraps or is dropped however long the run. Each span carries
//! its name, a detail (statement class, query id, ...), start and end,
//! its parent span and the id of the request it belongs to: a span opened
//! with no parent on its thread starts a new request.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Vec<Span>> {
    static STORE: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Run `f` inside a span named `name`. `detail` is only evaluated while
/// tracing is on; with tracing off the call costs one atomic load.
pub fn span<R>(name: &'static str, detail: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| (0, NEXT_REQ.fetch_add(1, Ordering::Relaxed)));
    STACK.with(|s| s.borrow_mut().push((id, req)));
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        req,
        name,
        detail: detail(),
        start_ns,
        end_ns,
    };
    store()
        .lock()
        .expect("a span recorder panicked while holding the store")
        .push(span);
    r
}

/// Total and self time of one span name (or name + detail).
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total: Duration,
    /// Duration minus the time its child spans cover.
    pub self_time: Duration,
}

/// Every recorded span, drained from the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *store().lock().expect("span store poisoned"))
}

/// Self time per `name` and per `name[detail]`. Children of one span run
/// on its thread one after another, so their durations do not overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_time.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
        let mut keys = vec![s.name.to_string()];
        if !s.detail.is_empty() {
            keys.push(format!("{}[{}]", s.name, s.detail));
        }
        for k in keys {
            let e = out.entry(k).or_default();
            e.count += 1;
            e.total += Duration::from_nanos(dur);
            e.self_time += Duration::from_nanos(own);
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the spans as JSON lines, followed by one `summary` line per
/// self-time key.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"req\":{},\"name\":{},\"detail\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.parent,
            s.req,
            json_str(s.name),
            json_str(&s.detail),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
    }
    for (k, t) in self_times(spans) {
        let _ = writeln!(
            out,
            "{{\"summary\":{},\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
            json_str(&k),
            t.count,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            detail: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            mk(1, 0, "txn", 0, 100),
            mk(2, 1, "stmt", 10, 40),
            mk(3, 1, "stmt", 50, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["txn"].total, Duration::from_nanos(100));
        assert_eq!(t["txn"].self_time, Duration::from_nanos(50));
        assert_eq!(t["stmt"].count, 2);
        assert_eq!(t["stmt"].self_time, Duration::from_nanos(50));
    }
}
