//! The served system: a `NetServer` on loopback port 0 over a 2-worker
//! pool, driven by closed-loop client threads (one connection and one
//! `hello` session each; a client sends its next statement only after the
//! previous reply arrived).

use crate::gen::{self, ClientGen, Kind, Size, Workload};
use crate::Fail;
use polyview_net::{ClientError, NetClient, NetConfig, NetServer};
use polyview_pool::{PoolConfig, Submit};
use std::time::{Duration, Instant};

/// Engine replicas in the pool.
pub const WORKERS: usize = 2;

/// Client threads: one per core, at most one per replica.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(WORKERS)
}

/// Untimed ops each client runs before measuring: enough to compile
/// every repeated statement text on its replica.
fn warmup_ops(w: Workload) -> usize {
    match w {
        Workload::ViewScan => 4,
        Workload::DeclChurn => 20,
        Workload::PointOps => 20,
    }
}

pub struct Client {
    conn: NetClient,
    gen: ClientGen,
    session: u64,
}

pub struct Served {
    pub server: NetServer,
    clients: Vec<Client>,
}

impl Served {
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Bind, install schema and preload, connect the clients, and warm up.
pub fn setup(
    w: Workload,
    size: Size,
    seed: u64,
    clients: usize,
    telemetry: bool,
) -> Result<Served, Fail> {
    let mut pool = PoolConfig::default()
        .workers(WORKERS)
        .telemetry_enabled(telemetry);
    if w == Workload::DeclChurn {
        pool = pool.checkpoint_every(64);
    }
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default().pool(pool))
        .map_err(|e| Fail::Broken(format!("bind: {e}")))?;
    let sessions = place_sessions(&server, clients)?;

    let mut conn = connect(&server)?;
    for frame in frames(&gen::setup_statements(w, size, clients)) {
        let results = conn
            .call_batch(&frame)
            .map_err(|e| Fail::Broken(format!("setup batch: {e}")))?;
        for r in results {
            if let Err((message, kind)) = r {
                return Err(Fail::Broken(format!(
                    "setup statement failed ({kind}): {message}"
                )));
            }
        }
    }
    drop(conn);

    let mut out = Vec::with_capacity(clients);
    for (gen, session) in gen::client_gens(w, size, seed, clients)
        .into_iter()
        .zip(sessions)
    {
        let mut conn = connect(&server)?;
        conn.hello(session)
            .map_err(|e| Fail::Broken(format!("hello: {e}")))?;
        let mut client = Client { conn, gen, session };
        for _ in 0..warmup_ops(w) {
            let op = client.gen.next_op();
            let got = loop {
                match client.conn.call(&op.src) {
                    Err(ClientError::Busy) => std::thread::sleep(Duration::from_millis(1)),
                    r => break r.map_err(|e| Fail::Broken(format!("warm-up: {e}")))?,
                }
            };
            op.check(&got, client.gen.issued()).map_err(Fail::Wrong)?;
        }
        out.push(client);
    }
    Ok(Served {
        server,
        clients: out,
    })
}

fn connect(server: &NetServer) -> Result<NetClient, Fail> {
    NetClient::connect(server.local_addr()).map_err(|e| Fail::Broken(format!("connect: {e}")))
}

/// Pick session ids that `Pool::worker_for` maps to distinct replicas,
/// so no replica idles by luck of the session hash.
fn place_sessions(server: &NetServer, clients: usize) -> Result<Vec<u64>, Fail> {
    server.with_pool(|p| {
        let workers = p.worker_count();
        let mut sessions: Vec<u64> = Vec::with_capacity(clients);
        for c in 0..clients {
            let s = (1..)
                .find(|s| p.worker_for(*s) == c % workers && !sessions.contains(s))
                .expect("splitmix64 reaches every replica");
            sessions.push(s);
        }
        let mut placed: Vec<usize> = sessions.iter().map(|s| p.worker_for(*s)).collect();
        placed.sort_unstable();
        placed.dedup();
        if placed.len() == clients.min(workers) {
            Ok(sessions)
        } else {
            Err(Fail::Broken(format!(
                "sessions {sessions:?} do not cover distinct replicas"
            )))
        }
    })
}

/// Group statements into batch frames well under the wire's 64 KiB frame
/// limit.
fn frames(stmts: &[String]) -> Vec<Vec<&str>> {
    const FRAME_BUDGET: usize = 24 * 1024;
    let mut out: Vec<Vec<&str>> = Vec::new();
    let mut bytes = 0;
    for s in stmts {
        if out.is_empty() || bytes + s.len() > FRAME_BUDGET {
            out.push(Vec::new());
            bytes = 0;
        }
        bytes += s.len();
        out.last_mut().expect("pushed above").push(s);
    }
    out
}

/// What a closed-loop phase measured. Times are nanoseconds.
#[derive(Default)]
pub struct LoopStats {
    /// Latency of each untraced read and write, from first attempt to
    /// answer.
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    /// Ops started, and ops that ended in a statement or wire error.
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// `busy` refusals (each retried until the op was accepted).
    pub busy: u64,
    pub elapsed_ns: u64,
    /// Traced phase: round trips over the wire, and in-process
    /// (`Pool::submit` + `Ticket::wait`) for the alternate ops.
    pub wire_ns: Vec<u64>,
    pub inproc_ns: Vec<u64>,
    pub submit_ns: Vec<u64>,
    pub wait_ns: Vec<u64>,
    pub classify_ns: Vec<u64>,
}

impl LoopStats {
    fn merge(&mut self, o: LoopStats) {
        self.reads.extend(o.reads);
        self.writes.extend(o.writes);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.busy += o.busy;
        self.wire_ns.extend(o.wire_ns);
        self.inproc_ns.extend(o.inproc_ns);
        self.submit_ns.extend(o.submit_ns);
        self.wait_ns.extend(o.wait_ns);
        self.classify_ns.extend(o.classify_ns);
    }

    pub fn throughput(&self) -> f64 {
        self.completed as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// Run every client for `dur`. With `traced`, each client alternates its
/// reads (and, separately, its writes) between the wire and an in-process
/// submit to the same pool under the same session, timing the pool calls.
pub fn closed_loop(served: &mut Served, dur: Duration, traced: bool) -> Result<LoopStats, Fail> {
    let Served { server, clients } = served;
    let server: &NetServer = server;
    let start = Instant::now();
    let per_client: Vec<Result<LoopStats, Fail>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || client_loop(server, c, start, dur, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopStats {
        elapsed_ns: start.elapsed().as_nanos() as u64,
        ..LoopStats::default()
    };
    for st in per_client {
        total.merge(st?);
    }
    Ok(total)
}

enum Failure {
    Busy,
    Stmt(String),
    Wire(String),
}

fn client_loop(
    server: &NetServer,
    c: &mut Client,
    start: Instant,
    dur: Duration,
    traced: bool,
) -> Result<LoopStats, Fail> {
    let mut st = LoopStats::default();
    let mut nth = [0u64; 2];
    while start.elapsed() < dur {
        let op = c.gen.next_op();
        let class = op.kind as usize;
        let in_process = traced && nth[class] % 2 == 1;
        nth[class] += 1;
        st.attempted += 1;
        // A `busy` refusal is retried, as a client must; the op's latency
        // runs from its first attempt, so refusals show in the tail.
        let t0 = Instant::now();
        let res = loop {
            let res = if in_process {
                submit_in_process(server, c.session, &op.src, &mut st)
            } else {
                match c.conn.call(&op.src) {
                    Ok(v) => Ok(v),
                    Err(ClientError::Busy) => Err(Failure::Busy),
                    Err(ClientError::Server { kind, message }) => {
                        Err(Failure::Stmt(format!("{kind}: {message}")))
                    }
                    Err(e) => Err(Failure::Wire(e.to_string())),
                }
            };
            match res {
                Err(Failure::Busy) => {
                    st.busy += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => break other,
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        match res {
            Ok(got) => {
                op.check(&got, c.gen.issued()).map_err(Fail::Wrong)?;
                st.completed += 1;
                if traced {
                    if !in_process {
                        st.wire_ns.push(ns);
                    }
                } else if op.kind == Kind::Read {
                    st.reads.push(ns);
                } else {
                    st.writes.push(ns);
                }
            }
            Err(Failure::Stmt(m)) => {
                eprintln!("perfbench: statement failed: {m}");
                st.failed += 1;
            }
            Err(Failure::Wire(m)) => {
                eprintln!("perfbench: connection lost: {m}");
                st.failed += 1;
                break;
            }
            Err(Failure::Busy) => unreachable!("busy refusals are retried above"),
        }
    }
    Ok(st)
}

/// One op through `Pool::classify`, `Pool::submit` and `Ticket::wait`,
/// under the server's pool lock like the wire path's reader thread.
fn submit_in_process(
    server: &NetServer,
    session: u64,
    src: &str,
    st: &mut LoopStats,
) -> Result<String, Failure> {
    let (classify_ns, submit_ns, submitted) = server.with_pool(|p| {
        let t = Instant::now();
        let _ = p.classify(src);
        let classify_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let submitted = p.submit(session, src);
        (classify_ns, t.elapsed().as_nanos() as u64, submitted)
    });
    st.classify_ns.push(classify_ns);
    let ticket = match submitted {
        Ok(Submit::Queued(t)) => t,
        Ok(Submit::Full) => return Err(Failure::Busy),
        Err(e) => return Err(Failure::Stmt(e.to_string())),
    };
    let t = Instant::now();
    let res = ticket.wait();
    let wait_ns = t.elapsed().as_nanos() as u64;
    st.submit_ns.push(submit_ns);
    st.wait_ns.push(wait_ns);
    st.inproc_ns.push(submit_ns + wait_ns);
    res.map_err(|e| Failure::Stmt(e.to_string()))
}

/// The end-of-run oracle: every replica answers every final probe with
/// the value the generators' models predict.
pub fn check_replicas(served: &Served) -> Result<(), Fail> {
    let gens: Vec<&ClientGen> = served.clients.iter().map(|c| &c.gen).collect();
    let probes = gen::final_probes(&gens);
    served.server.with_pool(|p| {
        for (src, want) in &probes {
            for w in 0..p.worker_count() {
                let got = p
                    .probe_worker(w, src)
                    .map_err(|e| Fail::Broken(format!("probe on replica {w}: {e}")))?;
                if &got != want {
                    return Err(Fail::Wrong(format!(
                        "replica {w} answers `{}` with `{got}`, want `{want}`",
                        &src[..src.len().min(120)]
                    )));
                }
            }
        }
        Ok(())
    })
}
