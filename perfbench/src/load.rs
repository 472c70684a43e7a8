//! Load generators: a closed loop and an open loop, each over one
//! connection per client thread.
//!
//! In the closed loop a client sends its next request as soon as the
//! previous reply arrives, so the offered rate is whatever the system
//! sustains. In the open loop request `i` is due at `i / rate` seconds; a
//! client waits for the due time, or sends at once when a slow reply held
//! it past it. Open-loop latency runs from the due time, so a stall is
//! charged to every request it delays, and the generator reports how late
//! it sent.

use crate::procstat::Cpu;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A request counts as sent late when it left more than this after its
/// due time (sleep overshoot alone stays well below).
pub const LATE_S: f64 = 1e-3;

/// Share of a serving run spent in the closed loop; the open loop takes
/// the rest.
pub const CLOSED_SHARE: f64 = 0.25;

/// Slices of a closed loop whose median completion rate is its rate.
pub const RATE_WINDOWS: usize = 10;
/// Slices of an open loop whose median p50 is its p50.
pub const P50_WINDOWS: usize = 5;
/// Slices of an open loop whose median CPU per request is its CPU per
/// request.
pub const CPU_WINDOWS: usize = 20;

/// First request id of an open loop; closed loops number from 0.
pub const OPEN_FIRST_ID: usize = 1 << 31;

/// One closed-then-open measurement over the same connections.
pub struct Pass {
    /// Closed-loop records.
    pub closed: Vec<Record>,
    /// Closed-loop wall time, seconds.
    pub closed_s: f64,
    /// Process CPU seconds when the closed loop started.
    pub closed_cpu0_s: f64,
    /// Open-loop records.
    pub open: Vec<Record>,
    /// CPU the process used during the open loop (fixed work).
    pub open_cpu: Cpu,
    /// Process CPU seconds when the open loop started.
    pub open_cpu0_s: f64,
}

/// Spends [`CLOSED_SHARE`] of `seconds` in a closed loop, then offers the
/// rest's worth of requests at `rate` in an open loop.
pub fn closed_then_open<C: Send>(
    conns: &mut [C],
    seconds: f64,
    rate: f64,
    op: &(dyn Fn(&mut C, usize) -> Result<String, String> + Sync),
) -> Pass {
    let t = Instant::now();
    let closed_cpu0_s = Cpu::now().total_s();
    let closed = closed_loop(conns, Duration::from_secs_f64(seconds * CLOSED_SHARE), op);
    let closed_s = t.elapsed().as_secs_f64();
    let count = (rate * seconds * (1.0 - CLOSED_SHARE)).round() as usize;
    let cpu0 = Cpu::now();
    // Open-loop requests take ids of their own: reusing closed-loop ids
    // would repeat those queries and let the result cache answer them.
    let open = open_loop(conns, rate, count, OPEN_FIRST_ID, op);
    let open_cpu = Cpu::now().since(cpu0);
    Pass {
        closed,
        closed_s,
        closed_cpu0_s,
        open,
        open_cpu,
        open_cpu0_s: cpu0.total_s(),
    }
}

/// One request's timeline (seconds from the start of its phase) and
/// outcome.
#[derive(Clone, Debug)]
pub struct Record {
    /// Request sequence number; the query it carried is a function of it.
    pub id: usize,
    /// When it was due (closed loop: when it was sent).
    pub due_s: f64,
    /// When it was sent.
    pub sent_s: f64,
    /// When its reply was complete.
    pub done_s: f64,
    /// Process CPU seconds (user plus system) when its reply was complete.
    pub cpu_s: f64,
    /// Reply body, or why the request failed.
    pub reply: Result<String, String>,
}

impl Record {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }
}

/// Runs `conns.len()` clients back to back for `duration`; every request
/// takes the next sequence number. Records come back in id order.
pub fn closed_loop<C: Send>(
    conns: &mut [C],
    duration: Duration,
    op: &(dyn Fn(&mut C, usize) -> Result<String, String> + Sync),
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while start.elapsed() < duration {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let sent_s = start.elapsed().as_secs_f64();
                        let reply = op(conn, id);
                        let done_s = start.elapsed().as_secs_f64();
                        out.push(Record {
                            id,
                            due_s: sent_s,
                            sent_s,
                            done_s,
                            cpu_s: Cpu::now().total_s(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.id);
    records
}

/// Offers `count` requests at `rate` per second, numbered from
/// `first_id`; the `i`-th is due at `i / rate` and goes out on client
/// `i % conns.len()`. Records come back in id order.
pub fn open_loop<C: Send>(
    conns: &mut [C],
    rate: f64,
    count: usize,
    first_id: usize,
    op: &(dyn Fn(&mut C, usize) -> Result<String, String> + Sync),
) -> Vec<Record> {
    let clients = conns.len();
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..count).step_by(clients) {
                        let id = first_id + i;
                        let due_s = i as f64 / rate;
                        let now = start.elapsed().as_secs_f64();
                        if now < due_s {
                            std::thread::sleep(Duration::from_secs_f64(due_s - now));
                        }
                        let sent_s = start.elapsed().as_secs_f64();
                        let reply = op(conn, id);
                        let done_s = start.elapsed().as_secs_f64();
                        out.push(Record {
                            id,
                            due_s,
                            sent_s,
                            done_s,
                            cpu_s: Cpu::now().total_s(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.id);
    records
}

/// Ascending latencies (ms from the due time) of the successful records.
pub fn ok_latencies_ms(records: &[Record]) -> Vec<f64> {
    crate::stats::sorted(
        &records
            .iter()
            .filter(|r| r.reply.is_ok())
            .map(Record::latency_ms)
            .collect::<Vec<_>>(),
    )
}

/// Records the operation counts and load figures of `passes` (one per
/// boot) in `run`, under `prefix`, and returns each pass's windowed
/// closed-loop rate and windowed open-loop p50. The metrics are their
/// medians: a slow spell or an unlucky boot moves one pass.
pub fn summarize_passes(
    run: &mut crate::report::Run,
    prefix: &str,
    passes: &[Pass],
) -> (Vec<f64>, Vec<f64>) {
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut lat = Vec::new();
    let (mut closed_ok, mut closed_s, mut late, mut max_late_ms) = (0, 0.0, 0, 0.0f64);
    for p in passes {
        count_phase(run, &format!("{prefix}closed_loop"), &p.closed);
        count_phase(run, &format!("{prefix}open_loop"), &p.open);
        rates.push(windowed_rate(&p.closed, p.closed_s, RATE_WINDOWS));
        p50s.push(windowed_p50_ms(&p.open, P50_WINDOWS));
        lat.extend(ok_latencies_ms(&p.open));
        closed_ok += p.closed.iter().filter(|r| r.reply.is_ok()).count();
        closed_s += p.closed_s;
        let l = lateness(&p.open);
        late += l.late;
        max_late_ms = max_late_ms.max(l.max_late_ms);
    }
    let lat = crate::stats::sorted(&lat);
    run.fact(&format!("{prefix}closed_loop.queries"), closed_ok as f64);
    run.fact(&format!("{prefix}closed_loop.seconds"), closed_s);
    run.fact(&format!("{prefix}open_loop.queries"), lat.len() as f64);
    run.fact(&format!("{prefix}open_loop.late"), late as f64);
    run.fact(&format!("{prefix}open_loop.max_late_ms"), max_late_ms);
    run.fact(
        &format!("{prefix}open_loop.p50_ms"),
        crate::stats::percentile(&lat, 0.5),
    );
    run.fact(
        &format!("{prefix}open_loop.p99_ms"),
        crate::stats::percentile(&lat, 0.99),
    );
    let closed_cpu: Vec<f64> = passes
        .iter()
        .flat_map(|p| windowed_cpu_per_request_s(&p.closed, p.closed_cpu0_s, CPU_WINDOWS))
        .collect();
    run.fact(
        &format!("{prefix}closed_loop.cpu_ms_per_request"),
        crate::stats::median(&closed_cpu) * 1e3,
    );
    let open_cpu: Vec<f64> = passes
        .iter()
        .flat_map(|p| windowed_cpu_per_request_s(&p.open, p.open_cpu0_s, CPU_WINDOWS))
        .collect();
    run.fact(
        &format!("{prefix}open_loop.cpu_ms_per_request"),
        crate::stats::median(&open_cpu) * 1e3,
    );
    run.fact(
        &format!("{prefix}open_loop.cpu_s"),
        passes.iter().map(|p| p.open_cpu.total_s()).sum(),
    );
    (rates, p50s)
}

/// Records a phase's attempted and failed requests in `run`, with the
/// first few errors.
pub fn count_phase(run: &mut crate::report::Run, name: &str, records: &[Record]) {
    let errors: Vec<&String> = records
        .iter()
        .filter_map(|r| r.reply.as_ref().err())
        .collect();
    for e in errors.iter().take(3) {
        run.note_error(format!("{name}: {e}"));
    }
    run.phase(name, records.len(), errors.len());
}

/// Closed-loop throughput as the median over `windows` equal slices of
/// `[0, duration_s)` of the successful completions per second in each: a
/// brief stall on a shared machine moves one slice, not the figure.
pub fn windowed_rate(records: &[Record], duration_s: f64, windows: usize) -> f64 {
    let width = duration_s / windows as f64;
    let mut counts = vec![0usize; windows];
    for r in records.iter().filter(|r| r.reply.is_ok()) {
        let w = (r.done_s / width) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1;
        }
    }
    crate::stats::median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Open-loop median latency (ms from the due time) as the median over
/// `windows` consecutive id slices of each slice's median, for the same
/// reason as [`windowed_rate`]. Failed requests are left out.
pub fn windowed_p50_ms(records: &[Record], windows: usize) -> f64 {
    let size = records.len().div_ceil(windows).max(1);
    let p50s: Vec<f64> = records
        .chunks(size)
        .map(|c| {
            crate::stats::median(
                &c.iter()
                    .filter(|r| r.reply.is_ok())
                    .map(Record::latency_ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    crate::stats::median(&p50s)
}

/// Process CPU per request, in seconds, of each of `windows` consecutive
/// id slices of an open loop that started at process CPU `cpu0_s`: from
/// the previous slice's last completion to its own. The rate is fixed, so
/// every slice asks the same work; a slice that a burst of outside load
/// slowed stands out, and the median over the slices leaves it out.
pub fn windowed_cpu_per_request_s(records: &[Record], cpu0_s: f64, windows: usize) -> Vec<f64> {
    let size = records.len().div_ceil(windows).max(1);
    let mut prev = cpu0_s;
    records
        .chunks(size)
        .map(|c| {
            let end = c.iter().map(|r| r.cpu_s).fold(prev, f64::max);
            let used = end - prev;
            prev = end;
            used / c.len() as f64
        })
        .collect()
}

/// What the open-loop generator reports about itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lateness {
    /// Requests sent more than [`LATE_S`] after their due time.
    pub late: usize,
    /// Largest send delay past the due time, in milliseconds.
    pub max_late_ms: f64,
}

/// Lateness of a set of records.
pub fn lateness(records: &[Record]) -> Lateness {
    let mut out = Lateness {
        late: 0,
        max_late_ms: 0.0,
    };
    for r in records {
        let late = r.sent_s - r.due_s;
        if late > LATE_S {
            out.late += 1;
        }
        out.max_late_ms = out.max_late_ms.max(late * 1e3);
    }
    out
}

/// The open-loop sending rule on one client, without a clock: each
/// request goes out at its due time or when the previous reply arrives,
/// whichever is later, and takes `service[i]` to answer.
#[cfg(test)]
pub fn simulate(due: &[f64], service: &[f64]) -> Vec<Record> {
    let mut free_at = 0.0f64;
    due.iter()
        .zip(service)
        .enumerate()
        .map(|(id, (&due_s, &svc))| {
            let sent_s = due_s.max(free_at);
            free_at = sent_s + svc;
            Record {
                id,
                due_s,
                sent_s,
                done_s: free_at,
                cpu_s: 0.0,
                reply: Ok(String::new()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // 10 ms apart, 1 ms service, request 2 stalls for 35 ms.
        let due: Vec<f64> = (0..8).map(|i| f64::from(i) * 0.010).collect();
        let mut service = vec![0.001; 8];
        service[2] = 0.035;
        let recs = simulate(&due, &service);
        let lat: Vec<f64> = recs.iter().map(Record::latency_ms).collect();
        // Unaffected requests take their service time.
        assert!((lat[0] - 1.0).abs() < 1e-9 && (lat[1] - 1.0).abs() < 1e-9);
        // The stall itself, then three requests that queued behind it: each
        // waited from its due time until the client was free again.
        assert!((lat[2] - 35.0).abs() < 1e-9);
        assert!((lat[3] - 26.0).abs() < 1e-9, "{lat:?}"); // sent at 55 ms, due 30 ms
        assert!((lat[4] - 17.0).abs() < 1e-9);
        assert!((lat[5] - 8.0).abs() < 1e-9);
        assert!((lat[6] - 1.0).abs() < 1e-9);
        let l = lateness(&recs);
        assert_eq!(l.late, 3);
        assert!((l.max_late_ms - 25.0).abs() < 1e-9);
        // Timing from the send instead would hide the backlog entirely.
        assert!(recs[3..6]
            .iter()
            .all(|r| (r.done_s - r.sent_s - 0.001).abs() < 1e-9));
    }

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        let rec = |done_s: f64| Record {
            id: 0,
            due_s: 0.0,
            sent_s: 0.0,
            done_s,
            cpu_s: 0.0,
            reply: Ok(String::new()),
        };
        // 10 completions in each of four 1 s windows but one, which has 2;
        // one failure and one completion past the end are not counted.
        let mut recs: Vec<Record> = (0..4)
            .flat_map(|w| (0..10).map(move |i| f64::from(w) + f64::from(i) * 0.05))
            .map(rec)
            .collect();
        recs.retain(|r| !(2.0..3.0).contains(&r.done_s) || r.done_s < 2.1);
        recs.push(Record {
            reply: Err("x".into()),
            ..rec(0.5)
        });
        recs.push(rec(4.5));
        assert_eq!(windowed_rate(&recs, 4.0, 4), 10.0);
        assert_eq!(windowed_rate(&recs, 4.0, 1), 32.0 / 4.0);
    }

    #[test]
    fn windowed_p50_takes_the_median_slice() {
        let rec = |lat_ms: f64| Record {
            id: 0,
            due_s: 0.0,
            sent_s: 0.0,
            done_s: lat_ms / 1e3,
            cpu_s: 0.0,
            reply: Ok(String::new()),
        };
        // Three slices with medians 1, 2 and 50 (a stalled slice).
        let recs: Vec<Record> = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 50.0, 50.0, 50.0]
            .into_iter()
            .map(rec)
            .collect();
        assert!((windowed_p50_ms(&recs, 3) - 2.0).abs() < 1e-9);
        assert!((windowed_p50_ms(&recs, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_cpu_splits_the_process_cpu_by_slice() {
        // Four requests per slice; CPU stamps climb 1 ms a request except
        // in the third slice, where an outside burst costs 10 ms more.
        let mut cpu = 5.0;
        let recs: Vec<Record> = (0..12)
            .map(|i| {
                cpu += if i == 9 { 0.011 } else { 0.001 };
                Record {
                    id: i,
                    due_s: 0.0,
                    sent_s: 0.0,
                    done_s: 0.0,
                    cpu_s: cpu,
                    reply: Ok(String::new()),
                }
            })
            .collect();
        let per = windowed_cpu_per_request_s(&recs, 5.0, 3);
        assert_eq!(per.len(), 3);
        assert!((per[0] - 0.001).abs() < 1e-12 && (per[1] - 0.001).abs() < 1e-12);
        assert!((per[2] - 0.0035).abs() < 1e-12, "{per:?}");
        assert!((crate::stats::median(&per) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn open_loop_keeps_the_schedule_and_ids() {
        let mut conns = vec![(), ()];
        let recs = open_loop(&mut conns, 2000.0, 20, 100, &|_, id| Ok(id.to_string()));
        assert_eq!(recs.len(), 20);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.id, 100 + i);
            assert!((r.due_s - i as f64 / 2000.0).abs() < 1e-12);
            assert_eq!(r.reply.as_deref(), Ok((100 + i).to_string().as_str()));
            assert!(r.sent_s >= r.due_s && r.done_s >= r.sent_s);
        }
    }

    #[test]
    fn closed_loop_numbers_requests_densely() {
        let mut conns = vec![0usize, 0usize];
        let recs = closed_loop(&mut conns, Duration::from_millis(30), &|n, id| {
            *n += 1;
            Ok(id.to_string())
        });
        assert!(!recs.is_empty());
        assert!(recs.iter().enumerate().all(|(i, r)| r.id == i));
        assert_eq!(conns[0] + conns[1], recs.len());
    }
}
