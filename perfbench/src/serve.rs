//! `serve-durable`: an in-process `serve` (2 workers, default `JobSpec`:
//! snapshot every 256 applications, journal write per record) driven by
//! two client connections in a closed loop — submit, then wait. One
//! submission in four repeats the client's last program without `fresh`,
//! so the result cache sees shared work.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use chasekit_core::display::{json_string, program_to_string};
use chasekit_core::{Instance, Program};
use chasekit_engine::serve::{run_job, serve, JobSpec, ServeConfig, ServerHandle};
use chasekit_engine::{
    write_snapshot_atomic, Budget, CancelToken, ChaseConfig, ChaseMachine, JournalWriter,
    StopReason,
};

use crate::inputs::{facts_for, terminating_lubm, with_database};
use crate::measure::{median, mix, ms_since, peak_rss_bytes, timed, Samples};
use crate::span::Tracer;
use crate::{Layer, RunResult, OUT_DIR};

/// Client connections; at most the host's two cores.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Distinct LUBM rule sets the jobs draw from. The tail is set by the
/// heaviest few percent of jobs, so it needs many rule sets to stay put
/// from seed to seed.
const PROGRAMS: usize = 64;
/// Distinct job inputs (rule set + its own database).
const POOL: usize = 768;
/// Atoms in each job's saturated instance. Each rule set's database size
/// is chosen for it: with a fixed 1k facts per job, one seed in five drew
/// rule sets that doubled the tail.
const ATOMS_PER_JOB: usize = 3_000;
/// Every this-many-th submission of a client repeats its last program.
const REPEAT_EVERY: usize = 4;
/// Jobs whose layers the traced run times directly.
const PROBES: usize = 4;

struct Input {
    texts: Vec<String>,
    store: PathBuf,
    server: ServerHandle,
}

fn store_dir(seed: u64, n: usize) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("serve-{}-{seed}-{n}", std::process::id()))
}

fn setup(seed: u64, n: usize) -> std::io::Result<Input> {
    let programs = terminating_lubm(seed, 0x5e7e_0000, PROGRAMS);
    let facts: Vec<usize> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            facts_for(
                p,
                ATOMS_PER_JOB,
                JobSpec::server_default().variant,
                mix(seed, 0x20_0000 + i as u64),
            )
        })
        .collect();
    let texts = (0..POOL)
        .map(|i| {
            program_to_string(&with_database(
                &programs[i % PROGRAMS],
                facts[i % PROGRAMS],
                mix(seed, 0x10_0000 + i as u64),
            ))
        })
        .collect();
    let store = store_dir(seed, n);
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store)?;
    let mut config = ServeConfig::new(&store);
    config.workers = WORKERS;
    let server = serve(config)?;
    Ok(Input {
        texts,
        store,
        server,
    })
}

fn teardown(input: Input) {
    input.server.shutdown();
    let _ = std::fs::remove_dir_all(&input.store);
}

/// The value of a flat JSON response field, unquoted.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// One finished submission as the client saw it.
struct Job {
    pool_idx: usize,
    cached: bool,
    applications: u64,
    atoms: u64,
    job_ms: f64,
    ack_ms: f64,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(resp),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Submit, then wait: one closed-loop job.
fn submit_and_wait(
    conn: &mut Conn,
    text: &str,
    fresh: bool,
    tracer: &mut Tracer,
) -> Result<(String, f64), String> {
    let submit = format!(
        "{{\"op\":\"submit\",\"program\":{}{}}}\n",
        json_string(text),
        if fresh { ",\"fresh\":1" } else { "" }
    );
    let start = Instant::now();
    let ack = tracer.span("engine.serve.submit_ack", |_| conn.request(&submit))?;
    let ack_ms = ms_since(start);
    if field(&ack, "ok") != Some("1") {
        return Err(format!("submit refused: {}", ack.trim()));
    }
    if field(&ack, "cached") == Some("1") {
        return Ok((ack, ack_ms));
    }
    let id = field(&ack, "job").ok_or_else(|| format!("no job id in {}", ack.trim()))?;
    let wait = format!("{{\"op\":\"wait\",\"job\":\"{id}\"}}\n");
    let done = tracer.span("engine.serve.wait", |_| conn.request(&wait))?;
    Ok((done, ack_ms))
}

fn client(
    addr: SocketAddr,
    texts: &[String],
    next: &AtomicUsize,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Vec<Job>, Vec<String>) {
    let mut jobs = Vec::new();
    let mut errors = Vec::new();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => return (jobs, vec![format!("connect: {e}")]),
    };
    let start = Instant::now();
    let mut last: Option<usize> = None;
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        k += 1;
        let (pool_idx, fresh) = match last {
            Some(idx) if k.is_multiple_of(REPEAT_EVERY) => (idx, false),
            _ => {
                let n = next.fetch_add(1, Ordering::Relaxed);
                // Past the pool, inputs repeat; `fresh` keeps them real jobs.
                (n % texts.len(), n >= texts.len())
            }
        };
        tracer.next_op();
        let job_start = Instant::now();
        let out = tracer.span("bench.serve.job", |t| {
            submit_and_wait(&mut conn, &texts[pool_idx], fresh, t)
        });
        let job_ms = ms_since(job_start);
        let (resp, ack_ms) = match out {
            Ok(x) => x,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        let num = |key| field(&resp, key).and_then(|v| v.parse::<u64>().ok());
        match (
            field(&resp, "state"),
            field(&resp, "outcome"),
            num("applications"),
            num("atoms"),
        ) {
            (Some("done"), Some("saturated"), Some(applications), Some(atoms)) => {
                jobs.push(Job {
                    pool_idx,
                    cached: field(&resp, "cached") == Some("1"),
                    applications,
                    atoms,
                    job_ms,
                    ack_ms,
                });
                if !k.is_multiple_of(REPEAT_EVERY) {
                    last = Some(pool_idx);
                }
            }
            _ => errors.push(format!("job did not saturate: {}", resp.trim())),
        }
    }
    (jobs, errors)
}

/// What an in-process chase of the same program produces.
fn expected(text: &str) -> Result<(u64, u64), String> {
    let program = Program::parse(text).map_err(|e| e.to_string())?;
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    let spec = JobSpec::server_default();
    let mut m = ChaseMachine::new(&program, ChaseConfig::of(spec.variant), initial);
    m.run(&Budget::applications(spec.steps));
    Ok((m.stats().applications, m.instance().len() as u64))
}

/// The gate: a `done` job reports the applications and atoms of an
/// in-process chase of the same program.
pub fn check_job(reported: (u64, u64), expected: (u64, u64)) -> Result<(), String> {
    if reported == expected {
        Ok(())
    } else {
        Err(format!(
            "server reported {} applications / {} atoms, an in-process chase gives {} / {}",
            reported.0, reported.1, expected.0, expected.1
        ))
    }
}

pub fn execute(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> RunResult {
    let mut r = RunResult::default();
    let mut input = None;
    for n in 0..setups {
        let (i, ms) = timed(|| setup(seed, n));
        r.setup_ms.push(ms);
        match i {
            Ok(i) => {
                if let Some(old) = input.replace(i) {
                    teardown(old);
                }
            }
            Err(e) => {
                r.attempted += 1;
                r.failed += 1;
                r.fail_gate(format!("server set-up: {e}"));
                return r;
            }
        }
    }
    let input = input.expect("at least one set-up");
    let addr = input.server.addr();

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut t = tracer.child();
                let (texts, next) = (&input.texts, &next);
                scope.spawn(move || {
                    let out = client(addr, texts, next, seconds, &mut t);
                    (out, t)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("client threads do not panic"));
        }
    });
    r.measured_s = start.elapsed().as_secs_f64();
    r.peak_rss = peak_rss_bytes();

    let mut jobs = Vec::new();
    for ((j, errors), t) in results {
        jobs.extend(j);
        r.attempted += errors.len() as u64;
        r.failed += errors.len() as u64;
        for e in errors {
            r.fail_gate(e);
        }
        tracer.absorb(t);
    }
    r.attempted += jobs.len() as u64;
    r.completed = jobs.len() as u64;
    for j in &jobs {
        r.primary.push(j.job_ms);
        r.secondary.push(j.ack_ms);
    }
    let hits = jobs.iter().filter(|j| j.cached).count();

    // Outside the measured region: every done job against an in-process chase.
    let mut memo: Vec<Option<(u64, u64)>> = vec![None; input.texts.len()];
    for j in &jobs {
        let want = match memo[j.pool_idx] {
            Some(w) => w,
            None => match expected(&input.texts[j.pool_idx]) {
                Ok(w) => *memo[j.pool_idx].insert(w),
                Err(e) => {
                    r.fail_gate(format!("job input {}: {e}", j.pool_idx));
                    continue;
                }
            },
        };
        if let Err(e) = check_job((j.applications, j.atoms), want) {
            r.failed += 1;
            r.fail_gate(format!("job input {}: {e}", j.pool_idx));
        }
    }
    let (tail_pct, tail) = r.primary.tail();
    r.notes.push(format!(
        "jobs_per_s {:.2}, job_p50_ms {:.1}, job_p{tail_pct:.1}_ms {:.1}, submit_ack_p50_ms {:.2} (n={}, {hits} cache hits)",
        r.completed as f64 / r.measured_s,
        r.primary.median(),
        tail,
        r.secondary.median(),
        r.primary.len(),
    ));

    if tracer.enabled() {
        let mut probes: Vec<&Job> = Vec::new();
        for j in jobs.iter().filter(|j| !j.cached) {
            if probes.len() < PROBES && probes.iter().all(|p| p.pool_idx != j.pool_idx) {
                probes.push(j);
            }
        }
        match traced_layers(&input, &probes, tracer) {
            Ok(mut layers) => {
                layers.push(Layer::new(
                    "engine.serve.cache_hit_ratio",
                    hits as f64 / jobs.len().max(1) as f64,
                    "ratio",
                ));
                r.layers = layers;
            }
            Err(e) => r.fail_gate(format!("layer probes: {e}")),
        }
    }
    teardown(input);
    r
}

/// Times the server's layers directly on a few of the jobs the clients
/// ran: `run_job` on the same spec (the server's overhead is the job
/// latency minus it), the chase with and without a journal, and a leg
/// loop like `run_job`'s with each durability call in its own span.
fn traced_layers(
    input: &Input,
    probes: &[&Job],
    tracer: &mut Tracer,
) -> Result<Vec<Layer>, String> {
    let io = |e: std::io::Error| e.to_string();
    let spec = JobSpec::server_default();
    let mut overhead = Vec::new();
    let mut append = Vec::new();
    let mut amplification = Vec::new();
    for (i, job) in probes.iter().enumerate() {
        let text = &input.texts[job.pool_idx];
        let program = Program::parse(text).map_err(|e| e.to_string())?;
        let initial = Instance::from_atoms(program.facts().iter().cloned());
        let dir = input.store.join(format!("probe-{i}"));
        let job_dir = dir.join("job");
        std::fs::create_dir_all(&job_dir).map_err(io)?;
        tracer.next_op();

        let (report, run_job_ms) = timed(|| {
            tracer.span("engine.serve.run_job", |_| {
                run_job(&program, &spec, &job_dir, CancelToken::new(), None)
            })
        });
        report?;
        overhead.push(job.job_ms - run_job_ms);

        let config = ChaseConfig::of(spec.variant);
        let mut plain = ChaseMachine::new(&program, config, initial.clone());
        let (_, plain_ms) = timed(|| plain.run(&Budget::applications(spec.steps)));
        let mut journaled = ChaseMachine::new(&program, config, initial.clone());
        let journal =
            JournalWriter::for_machine(&dir.join("plain.journal"), &journaled).map_err(io)?;
        journaled.set_journal(journal.with_flush_every(spec.flush_every));
        let (_, journaled_ms) = timed(|| journaled.run(&Budget::applications(spec.steps)));
        append.push(journaled_ms / plain_ms - 1.0);

        let bytes = durable_legs(&program, initial, &spec, &dir, tracer).map_err(io)?;
        amplification.push(bytes as f64 / text.len() as f64);
    }
    let by_name = tracer.self_ms_by_name();
    let med_ms = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v));
    let acks = Samples(
        by_name
            .get("engine.serve.submit_ack")
            .cloned()
            .unwrap_or_default(),
    );
    Ok(vec![
        Layer::new("engine.serve.submit_ack_ms", acks.median(), "ms"),
        Layer::new("engine.serve.server_overhead_ms", median(&overhead), "ms"),
        Layer::new("engine.journal.append_overhead", median(&append), "ratio"),
        Layer::new(
            "engine.journal.sync_ms",
            med_ms("engine.journal.sync"),
            "ms",
        ),
        Layer::new(
            "engine.checkpoint.to_text_ms",
            med_ms("engine.checkpoint.to_text"),
            "ms",
        ),
        Layer::new(
            "engine.journal.snapshot_write_ms",
            med_ms("engine.journal.snapshot_write"),
            "ms",
        ),
        Layer::new(
            "engine.journal.write_amplification",
            median(&amplification),
            "ratio",
        ),
    ])
}

/// `run_job`'s durable leg loop, rebuilt from the public calls it makes so
/// each one is timed on its own. Returns the bytes written to the journal
/// and the snapshots.
fn durable_legs(
    program: &Program,
    initial: Instance,
    spec: &JobSpec,
    dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<u64> {
    let journal_path = dir.join("state.journal");
    let snapshot_path = dir.join("state.ckpt");
    let other = |e: chasekit_engine::CheckpointError| std::io::Error::other(e.to_string());
    let mut m = ChaseMachine::new(program, ChaseConfig::of(spec.variant), initial);
    m.set_journal(
        JournalWriter::for_machine(&journal_path, &m)?.with_flush_every(spec.flush_every),
    );
    let mut bytes = 0u64;
    loop {
        let target = m
            .stats()
            .applications
            .saturating_add(spec.checkpoint_every)
            .min(spec.steps);
        let stop = tracer.span("engine.chase.run_leg", |_| {
            m.run(&Budget::applications(target))
        });
        let mut journal = m.take_journal().expect("a journal is installed");
        tracer.span("engine.journal.sync", |_| journal.sync())?;
        bytes += std::fs::metadata(&journal_path)?.len();
        drop(journal);
        let text = tracer
            .span("engine.checkpoint.to_text", |_| m.snapshot().to_text())
            .map_err(other)?;
        let at = if stop == StopReason::Applications && target < spec.steps {
            &snapshot_path
        } else {
            &dir.join("final.ckpt")
        };
        tracer.span("engine.journal.snapshot_write", |_| {
            write_snapshot_atomic(at, &text)
        })?;
        bytes += text.len() as u64;
        if at != &snapshot_path {
            return Ok(bytes);
        }
        let journal = tracer.span("engine.journal.rebase", |_| {
            JournalWriter::for_machine(&journal_path, &m)
        })?;
        m.set_journal(journal.with_flush_every(spec.flush_every));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_fields_parse() {
        let line = r#"{"ok":1,"job":"job-3","state":"done","outcome":"saturated","applications":12,"atoms":40}"#;
        assert_eq!(field(line, "job"), Some("job-3"));
        assert_eq!(field(line, "atoms"), Some("40"));
        assert_eq!(field(line, "cached"), None);
    }

    #[test]
    fn job_gate_rejects_a_tampered_report() {
        let text = "e(a, b). e(b, c). e(X, Y) -> t(X, Y). t(X, Y), e(Y, Z) -> t(X, Z).";
        let want = expected(text).unwrap();
        assert_eq!(check_job(want, want), Ok(()));
        assert!(check_job((want.0 + 1, want.1), want).is_err());
        assert!(check_job((want.0, want.1 - 1), want).is_err());
    }
}
