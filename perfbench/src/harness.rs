//! The serving harness shared by `serve`, `serve_sharded` and `ann`: boot
//! a stack several times and time each set-up, drive the last boots through
//! the socket, then check the kept answers apart from the program. The
//! workloads differ only in how they boot, what each request asks and how
//! an answer is checked.

use crate::load::{self, Pass, OPEN_FIRST_ID};
use crate::procstat::{self, Cpu};
use crate::report::Run;
use crate::stats;
use cmr_bench::serving::Client;
use cmr_serve::{Direction, Server, ShardFleet};
use std::time::{Duration, Instant};

/// Boots per run that serve, each for a third of the run.
pub const PASSES: usize = 3;
/// Hits per query.
pub const K: usize = 10;
/// Every open-loop answer is checked against the oracle, and every
/// closed-loop answer whose id is a multiple of this.
pub const CLOSED_CHECK_STRIDE: usize = 16;

/// The query vector request `id` carries.
pub type Query<'a> = dyn Fn(usize) -> Vec<f32> + Sync + 'a;

/// Checks the answer body of request `id`: its recall@1 and recall@10, or
/// why it is wrong.
pub type Check<'a> = dyn Fn(usize, &str) -> Result<(f64, f64), String> + Sync + 'a;

/// Request `id`'s direction: even ids image→recipe, odd recipe→image.
pub fn direction(id: usize) -> Direction {
    if id.is_multiple_of(2) {
        Direction::ImToRec
    } else {
        Direction::RecToIm
    }
}

/// Whether the answer to request `id` of a pass is kept and checked.
fn checked(id: usize) -> bool {
    id >= OPEN_FIRST_ID || id.is_multiple_of(CLOSED_CHECK_STRIDE)
}

/// A booted serving stack and the clients connected to it.
pub struct Stack {
    /// The front server.
    pub server: Server,
    fleet: Option<ShardFleet>,
    clients: Vec<Client>,
}

impl Stack {
    /// `server`, with `fleet` behind it when sharded, and one keep-alive
    /// connection per client thread, each with one health check answered.
    pub fn up(server: Server, fleet: Option<ShardFleet>) -> Stack {
        let clients = connect(&server, crate::client_threads());
        Stack {
            server,
            fleet,
            clients,
        }
    }

    /// Closes the clients first so the server's connection threads see EOF
    /// and shutdown does not wait out their read timeouts.
    pub fn stop(mut self) {
        self.clients.clear();
        self.server.shutdown();
        if let Some(mut f) = self.fleet.take() {
            f.shutdown();
        }
    }

    /// One closed-then-open pass of `seconds`; request `id` carries
    /// `query(id_base + id)`.
    pub fn drive(&mut self, query: &Query, rate: f64, seconds: f64, id_base: usize) -> Pass {
        // Fresh connections: the server closes keep-alive connections idle
        // past its read timeout, which checking the previous pass can exceed.
        self.clients = connect(&self.server, self.clients.len());
        let op = |c: &mut Client, id: usize| {
            let id_run = id_base + id;
            search(c, id_run, &query(id_run), checked(id))
        };
        load::closed_then_open(&mut self.clients, seconds, rate, &op)
    }
}

/// `n` keep-alive connections to `server`, each with one health check
/// answered.
fn connect(server: &Server, n: usize) -> Vec<Client> {
    let addr = server.local_addr().to_string();
    (0..n)
        .map(|_| {
            let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect client");
            assert_eq!(
                c.healthz().expect("health check").status,
                200,
                "health check status"
            );
            c
        })
        .collect()
}

/// One search. The body comes back only when `keep` is set, so the
/// answers no check reads hold no memory.
fn search(client: &mut Client, id: usize, query: &[f32], keep: bool) -> Result<String, String> {
    let resp = client
        .search(direction(id).as_str(), K, query)
        .map_err(|e| format!("request {id}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("request {id}: status {}", resp.status));
    }
    let body =
        String::from_utf8(resp.body).map_err(|_| format!("request {id}: body is not UTF-8"))?;
    // A partial-coverage answer is a failed operation, not a wrong one.
    if body.contains("\"degraded\":true") {
        return Err(format!("request {id}: degraded answer"));
    }
    Ok(if keep { body } else { String::new() })
}

/// Checks every kept answer of `pass`, split over the cores; returns the
/// checked answers' recall@1 and recall@10.
pub fn check_pass(
    run: &mut Run,
    pass: &Pass,
    id_base: usize,
    check: &Check,
) -> (Vec<f64>, Vec<f64>) {
    let kept: Vec<(usize, &str)> = pass
        .closed
        .iter()
        .chain(&pass.open)
        .filter(|r| checked(r.id))
        .filter_map(|r| r.reply.as_ref().ok().map(|b| (id_base + r.id, b.as_str())))
        .collect();
    let chunk = kept.len().div_ceil(crate::client_threads()).max(1);
    let verdicts: Vec<Result<(f64, f64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = kept
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(id, body)| check(id, body))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let (mut r1, mut r10) = (Vec::new(), Vec::new());
    for (&(id, _), verdict) in kept.iter().zip(verdicts) {
        match verdict {
            Ok((a, b)) => {
                r1.push(a);
                r10.push(b);
            }
            Err(e) => run.fail(format!("request {id}: {e}")),
        }
    }
    (r1, r10)
}

/// What the untraced boots measured.
pub struct Boots {
    /// Process CPU seconds of each set-up, every thread counted.
    setup_cpu: Vec<f64>,
    /// Wall seconds of each set-up.
    setup_wall: Vec<f64>,
    /// One pass per serving boot.
    pub passes: Vec<Pass>,
    /// Process CPU over the passes.
    cpu: Cpu,
    /// Result-cache hits over the passes.
    pub hits: u64,
    /// Result-cache misses over the passes.
    pub misses: u64,
    /// `VmHWM` when the first pass ended, before any check allocates.
    peak_rss_mb: f64,
    /// Open-loop rate, queries per second.
    rate: f64,
    /// Length of each pass, seconds.
    pass_s: f64,
}

/// Boots `setups` stacks one after another with `boot` and times each
/// set-up; `setup_s` is their median. The first [`PASSES`] boots are each
/// driven for their share of `seconds` at the open-loop `rate`, the others
/// stopped at once. Request ids of pass `p` start at `p << 32`. Peak memory
/// is read after the first pass, so it is one stack's, whatever the number
/// of boots. The last boot comes back serving and not yet driven.
pub fn boot_and_drive(
    mut boot: impl FnMut() -> Stack,
    setups: usize,
    query: &Query,
    rate: f64,
    seconds: f64,
) -> (Boots, Stack) {
    let (mut setup_cpu, mut setup_wall, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut hits, mut misses, mut peak_rss_mb) = (Cpu::default(), 0, 0, 0.0);
    let mut last: Option<Stack> = None;
    for b in 0..setups.max(PASSES) {
        if let Some(old) = last.take() {
            old.stop();
        }
        let t = Instant::now();
        let (mut stack, cpu_s) = procstat::cpu_timed(&mut boot);
        setup_wall.push(t.elapsed().as_secs_f64());
        setup_cpu.push(cpu_s);
        if b < PASSES {
            let cpu0 = Cpu::now();
            passes.push(stack.drive(query, rate, seconds / PASSES as f64, b << 32));
            cpu = cpu.plus(Cpu::now().since(cpu0));
            let (h, m) = stack.server.cache_stats();
            hits += h;
            misses += m;
            if b == 0 {
                peak_rss_mb = procstat::peak_rss_mb();
            }
        }
        last = Some(stack);
    }
    let boots = Boots {
        setup_cpu,
        setup_wall,
        passes,
        cpu,
        hits,
        misses,
        peak_rss_mb,
        rate,
        pass_s: seconds / PASSES as f64,
    };
    (boots, last.expect("at least one boot"))
}

/// Load figures and checked recall of the untraced passes.
pub struct Measured {
    /// Each pass's windowed closed-loop rate.
    rates: Vec<f64>,
    /// Each pass's windowed open-loop p50, ms.
    p50s: Vec<f64>,
    /// Per checked answer.
    pub r1: Vec<f64>,
    /// Per checked answer.
    pub r10: Vec<f64>,
}

impl Boots {
    /// Set-up seconds of each boot: process CPU, which steal by other
    /// tenants of the machine does not stretch.
    pub fn setups(&self) -> &[f64] {
        &self.setup_cpu
    }

    /// Records the set-ups, the passes' operation counts and load figures,
    /// and checks every kept answer with `check`.
    pub fn summarize(&self, run: &mut Run, check: &Check) -> Measured {
        run.samples("setup_s", &self.setup_cpu);
        run.fact("setup_wall_s", stats::median(&self.setup_wall));
        let (rates, p50s) = load::summarize_passes(run, "", &self.passes);
        let (mut r1, mut r10) = (Vec::new(), Vec::new());
        for (b, pass) in self.passes.iter().enumerate() {
            let (a, c) = check_pass(run, pass, b << 32, check);
            r1.extend(a);
            r10.extend(c);
        }
        run.fact("clients", crate::client_threads() as f64);
        run.fact("open_loop.rate_per_s", self.rate);
        run.fact("checked_answers", r1.len() as f64);
        run.fact("cache.hits", self.hits as f64);
        run.fact("cache.misses", self.misses as f64);
        Measured {
            rates,
            p50s,
            r1,
            r10,
        }
    }

    /// Reports the untraced run's end-to-end metrics.
    pub fn report(&self, run: &mut Run, m: &Measured) {
        run.metric("setup_s", stats::median(&self.setup_cpu));
        run.fact("closed_loop.ops_per_s", stats::median(&m.rates));
        run.fact("p50_ms", stats::least(&m.p50s));
        // CPU for the fixed open-loop work: steal by other tenants of the
        // machine stretches wall time, not the process's CPU time. Their
        // load still changes what the same work costs in CPU, in bursts
        // that the median CPU per request over the slices of every open
        // loop leaves out; times the requests the open loops offered.
        let per_request: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|p| load::windowed_cpu_per_request_s(&p.open, p.open_cpu0_s, load::CPU_WINDOWS))
            .collect();
        let requests = self.passes.iter().map(|p| p.open.len()).sum::<usize>() as f64;
        let scaled: Vec<f64> = per_request.iter().map(|c| c * requests).collect();
        run.samples("cpu_s", &scaled);
        run.metric("cpu_s", stats::median(&scaled));
        run.metric("recall_at_1", stats::mean(&m.r1));
        run.metric("recall_at_10", stats::mean(&m.r10));
        run.metric("peak_rss_mb", self.peak_rss_mb);
    }

    /// The traced run's common part: the process CPU of the untraced
    /// passes, then one more pass on `stack` with the program's counters
    /// on, checked like the others. Reports the tracing overhead
    /// against the untraced p50 and returns the counters under `prefix`
    /// with the traced open-loop p50 in ms.
    pub fn traced_pass(
        &self,
        run: &mut Run,
        m: &Measured,
        stack: &mut Stack,
        query: &Query,
        check: &Check,
        prefix: &str,
    ) -> (cmr_obs::Snapshot, f64) {
        run.metric("process.user_s", self.cpu.user_s);
        run.metric("process.sys_s", self.cpu.sys_s);
        cmr_obs::reset();
        cmr_obs::set_enabled(true);
        let id_base = 1 << 40;
        let traced = stack.drive(query, self.rate, self.pass_s, id_base);
        let snap = cmr_obs::snapshot(prefix);
        cmr_obs::set_enabled(false);
        load::count_phase(run, "traced_closed_loop", &traced.closed);
        load::count_phase(run, "traced_open_loop", &traced.open);
        check_pass(run, &traced, id_base, check);
        let traced_p50_ms = load::windowed_p50_ms(&traced.open, load::P50_WINDOWS);
        run.metric(
            "trace.overhead_pct",
            (traced_p50_ms / stats::least(&m.p50s) - 1.0) * 100.0,
        );
        (snap, traced_p50_ms)
    }

    /// One more pass of the same length on another stack.
    pub fn drive_again(&self, stack: &mut Stack, query: &Query, id_base: usize) -> Pass {
        stack.drive(query, self.rate, self.pass_s, id_base)
    }
}

impl Measured {
    /// Median windowed closed-loop rate and median open-loop p50 of the
    /// untraced passes.
    pub fn medians(&self) -> (f64, f64) {
        (stats::median(&self.rates), stats::median(&self.p50s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_answers_are_the_open_loop_and_a_closed_stride() {
        assert!(checked(0));
        assert!(!checked(1));
        assert!(checked(CLOSED_CHECK_STRIDE));
        assert!(checked(OPEN_FIRST_ID));
        assert!(checked(OPEN_FIRST_ID + 1));
        assert_eq!(direction(4), Direction::ImToRec);
        assert_eq!(direction(5), Direction::RecToIm);
    }
}
