//! Scenario 5 — Swift-style dataflow DAG (Figure 9).
//!
//! A [`DagSpec`] declares ftsh jobs with producer/consumer edges
//! through store keys: job B may start once every key it consumes has
//! been published. Each job is one simulated client running a
//! generated ftsh script; the scheduler *is* the retry discipline:
//!
//! * The **Ethernet** job senses the carrier with a free `df` probe —
//!   "how many of my inputs exist?" — and defers with exponential
//!   backoff until all of them do, only then committing fetches.
//! * The **Aloha** job blindly fetches each input until it appears;
//!   every poll of an absent key is an expensive store miss
//!   (see [`Store`]). **Fixed** is the same script with no backoff.
//!
//! After its inputs land the job runs (local compute, no contention)
//! and publishes its outputs, retrying under the same discipline —
//! which is where [`FaultKind::EnospcWindow`] injections bite: during
//! the window every put fails at the store, and mid-flight
//! [`FaultKind::ClientKill`] specs kill a job outright (a restart
//! delay re-runs it from scratch; its published outputs survive).
//!
//! The spec round-trips through JSON exactly like
//! [`FaultPlan`](simgrid::faults::FaultPlan), so DAGs are data, not
//! code.

use crate::coord::{coord_vm, schedule_done, store_reply, Store, StoreDone};
use crate::driver::{staggered_starts, ClientId, CommandWorld, Ctx, ExecOutcome, SimDriver};
use crate::lifecycle::NextUnit;
use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Vm};
use ftsh::Script;
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::json::{self, Value};
use simgrid::trace::SharedSink;
use simgrid::{json_escape, Series, Served, SimRng, StoreOp};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// One job of the workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct DagJob {
    /// Unique job name.
    pub name: String,
    /// Local compute time once the inputs are in hand.
    pub runtime: Dur,
    /// Store keys the job consumes.
    pub inputs: Vec<String>,
    /// Store keys the job publishes.
    pub outputs: Vec<String>,
}

/// A declarative workflow: jobs plus the dataflow edges implied by
/// shared key names. Inputs no job produces are treated as externally
/// staged — present in the store from the start.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DagSpec {
    /// The jobs, in declaration order (client `i` runs job `i`).
    pub jobs: Vec<DagJob>,
}

impl DagSpec {
    /// The default workflow: a Montage-like 8-job diamond.
    ///
    /// ```text
    /// extract ─┬─ align-a ─┐
    ///          ├─ align-b ─┼─ merge ─┬─ stats  ─┬─ archive
    ///          └─ align-c ─┘         └─ render ─┘
    /// ```
    pub fn diamond() -> DagSpec {
        let job = |name: &str, secs: u64, inputs: &[&str], outputs: &[&str]| DagJob {
            name: name.into(),
            runtime: Dur::from_secs(secs),
            inputs: inputs.iter().map(|s| (*s).into()).collect(),
            outputs: outputs.iter().map(|s| (*s).into()).collect(),
        };
        DagSpec {
            jobs: vec![
                job("extract", 2, &[], &["raw"]),
                job("align-a", 2, &["raw"], &["band-a"]),
                job("align-b", 3, &["raw"], &["band-b"]),
                job("align-c", 1, &["raw"], &["band-c"]),
                job("merge", 2, &["band-a", "band-b", "band-c"], &["mosaic"]),
                job("stats", 1, &["mosaic"], &["report"]),
                job("render", 2, &["mosaic"], &["image"]),
                job("archive", 1, &["report", "image"], &["archive"]),
            ],
        }
    }

    /// Inputs no job produces: staged into the store before t=0.
    pub fn external_inputs(&self) -> Vec<String> {
        let produced: HashSet<&str> = self
            .jobs
            .iter()
            .flat_map(|j| j.outputs.iter().map(String::as_str))
            .collect();
        let mut seen = HashSet::new();
        self.jobs
            .iter()
            .flat_map(|j| j.inputs.iter())
            .filter(|i| !produced.contains(i.as_str()) && seen.insert(i.as_str()))
            .cloned()
            .collect()
    }

    /// The producer of each key: key → producing job's name. Keys
    /// nobody produces (external inputs) are absent. The static
    /// checker joins this against per-script key effects to name the
    /// job behind each edge.
    pub fn producers(&self) -> HashMap<String, String> {
        self.jobs
            .iter()
            .flat_map(|j| j.outputs.iter().map(|o| (o.clone(), j.name.clone())))
            .collect()
    }

    /// Structural validation: names unique, at most one producer per
    /// key, and the dataflow acyclic.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = HashSet::new();
        let mut producer: HashMap<&str, &str> = HashMap::new();
        for j in &self.jobs {
            if !names.insert(j.name.as_str()) {
                return Err(format!("duplicate job name {:?}", j.name));
            }
            for o in &j.outputs {
                if let Some(prev) = producer.insert(o, &j.name) {
                    return Err(format!(
                        "key {o:?} produced by both {prev:?} and {:?}",
                        j.name
                    ));
                }
            }
        }
        // Kahn's algorithm over job→job edges implied by the keys.
        let mut indeg = vec![0usize; self.jobs.len()];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); self.jobs.len()];
        let idx_of: HashMap<&str, usize> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.name.as_str(), i))
            .collect();
        for (i, j) in self.jobs.iter().enumerate() {
            for input in &j.inputs {
                if let Some(p) = producer.get(input.as_str()) {
                    out_edges[idx_of[p]].push(i);
                    indeg[i] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..self.jobs.len()).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &n in &out_edges[i] {
                indeg[n] -= 1;
                if indeg[n] == 0 {
                    ready.push(n);
                }
            }
        }
        if seen != self.jobs.len() {
            return Err("workflow has a dependency cycle".into());
        }
        Ok(())
    }

    /// Serialize to the same hand-rolled JSON dialect as
    /// [`FaultPlan::to_json`](simgrid::faults::FaultPlan::to_json).
    /// Runtimes are integer microseconds (`runtime_us`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"jobs\": [");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let list = |keys: &[String]| {
                let mut l = String::from("[");
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        l.push_str(", ");
                    }
                    l.push('"');
                    l.push_str(&json_escape(k));
                    l.push('"');
                }
                l.push(']');
                l
            };
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"runtime_us\": {}, \"inputs\": {}, \"outputs\": {}}}",
                json_escape(&j.name),
                j.runtime.as_micros(),
                list(&j.inputs),
                list(&j.outputs),
            );
        }
        s.push_str("]}");
        s
    }

    /// Parse a spec back from [`to_json`](DagSpec::to_json) output (or
    /// anything shaped like it). Unknown fields are ignored.
    pub fn parse_json(text: &str) -> Result<DagSpec, String> {
        let v = json::parse(text)?;
        let obj = v.as_object().ok_or("spec must be a JSON object")?;
        let jobs = json::get(obj, "jobs")
            .and_then(Value::as_array)
            .ok_or("spec needs a \"jobs\" array")?;
        let mut out = Vec::new();
        for (i, jv) in jobs.iter().enumerate() {
            let j = jv
                .as_object()
                .ok_or_else(|| format!("job {i} must be an object"))?;
            let name = json::get(j, "name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("job {i} needs a \"name\""))?
                .to_string();
            let us = json::get(j, "runtime_us")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("job {name:?} needs \"runtime_us\""))?;
            let keys = |field: &str| -> Result<Vec<String>, String> {
                match json::get(j, field) {
                    None => Ok(Vec::new()),
                    Some(v) => v
                        .as_array()
                        .ok_or_else(|| format!("job {name:?}: {field} must be an array"))?
                        .iter()
                        .map(|k| {
                            k.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| format!("job {name:?}: {field} must hold strings"))
                        })
                        .collect(),
                }
            };
            out.push(DagJob {
                inputs: keys("inputs")?,
                outputs: keys("outputs")?,
                name,
                runtime: Dur::from_micros(us),
            });
        }
        Ok(DagSpec { jobs: out })
    }
}

/// The fetch phase of one job's script: the Ethernet variant gates on
/// a free `df` probe of the input count, the Aloha variant polls each
/// input blindly. Jobs with no inputs have no fetch phase.
fn fetch_phase(
    discipline: Discipline,
    job: &DagJob,
    dep_timeout: Dur,
    fetch_timeout: Dur,
) -> String {
    if job.inputs.is_empty() {
        return String::new();
    }
    let one = job.inputs.len() == 1;
    let fetch_all = |budget: Dur, indent: &str| -> String {
        if one {
            format!(
                "{indent}try for {t} seconds\n\
                 {indent}  fetch {key}\n\
                 {indent}end\n",
                t = budget.as_secs(),
                key = job.inputs[0],
            )
        } else {
            format!(
                "{indent}forall dep in {deps}\n\
                 {indent}  try for {t} seconds\n\
                 {indent}    fetch ${{dep}}\n\
                 {indent}  end\n\
                 {indent}end\n",
                deps = job.inputs.join(" "),
                t = budget.as_secs(),
            )
        }
    };
    match discipline {
        Discipline::Ethernet => format!(
            "try for {t} seconds\n\
               df {name} -> n\n\
               if ${{n}} .lt. {want}\n\
                 failure\n\
               else\n\
            {fetches}\
               end\n\
             end\n",
            t = dep_timeout.as_secs(),
            name = job.name,
            want = job.inputs.len(),
            fetches = fetch_all(fetch_timeout, "    "),
        ),
        Discipline::Aloha | Discipline::Fixed => fetch_all(dep_timeout, ""),
    }
}

/// The full generated script for one job under a discipline: fetch
/// phase, local run, then publish each output (retried — ENOSPC
/// windows make puts fail).
pub fn dag_job_script_text(
    discipline: Discipline,
    job: &DagJob,
    dep_timeout: Dur,
    fetch_timeout: Dur,
) -> String {
    let mut s = fetch_phase(discipline, job, dep_timeout, fetch_timeout);
    let _ = writeln!(s, "run {}", job.name);
    for o in &job.outputs {
        let _ = write!(
            s,
            "try for {t} seconds\n\
               publish {o}\n\
             end\n",
            t = dep_timeout.as_secs(),
        );
    }
    s
}

/// Parse the generated script for one job.
pub fn dag_job_script(
    discipline: Discipline,
    job: &DagJob,
    dep_timeout: Dur,
    fetch_timeout: Dur,
) -> Script {
    ftsh::parse(&dag_job_script_text(
        discipline,
        job,
        dep_timeout,
        fetch_timeout,
    ))
    .expect("generated script parses")
}

/// Parameters of the DAG scenario.
#[derive(Clone, Debug)]
pub struct DagParams {
    /// The workflow (client `i` runs `spec.jobs[i]`).
    pub spec: DagSpec,
    /// Job discipline.
    pub discipline: Discipline,
    /// Store service time of one publish.
    pub put_service: Dur,
    /// Store service time of a fetch that hits.
    pub get_service: Dur,
    /// Store service time of a fetch that misses.
    pub miss_service: Dur,
    /// Cost of the `df` carrier-sense probe (no store server).
    pub probe_cost: Dur,
    /// `try` budget on the dependency wait and on each publish.
    pub dep_timeout: Dur,
    /// Inner `try` budget on each Ethernet fetch.
    pub fetch_timeout: Dur,
    /// Pause before a failed job re-runs.
    pub failure_think: Dur,
    /// Jobs start uniformly spread over this span.
    pub start_stagger: Dur,
    /// Backoff base for Aloha/Ethernet retries.
    pub backoff_base: Dur,
    /// Backoff cap for Aloha/Ethernet retries.
    pub backoff_cap: Dur,
    /// Master seed.
    pub seed: u64,
    /// Fault plan: `client-kill` kills job clients by index,
    /// `enospc-window` fails every publish for its duration (empty: no
    /// faults).
    pub fault_plan: FaultPlan,
}

impl Default for DagParams {
    fn default() -> DagParams {
        DagParams {
            spec: DagSpec::diamond(),
            discipline: Discipline::Ethernet,
            put_service: Dur::from_millis(100),
            get_service: Dur::from_millis(50),
            miss_service: Dur::from_secs(2),
            probe_cost: Dur::from_millis(10),
            dep_timeout: Dur::from_secs(600),
            fetch_timeout: Dur::from_secs(60),
            failure_think: Dur::from_millis(500),
            start_stagger: Dur::from_secs(1),
            backoff_base: Dur::from_millis(500),
            backoff_cap: Dur::from_secs(4),
            seed: 0x5eed,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// The store + workflow-accounting world.
struct DagWorld {
    params: DagParams,
    name_to_idx: HashMap<String, usize>,
    rng: SimRng,
    store: Store<String>,
    /// When each job completed (`None` while it has not).
    done_at: Vec<Option<Time>>,
    /// The counters the run returns.
    out: DagOutcome,
}

impl DagWorld {
    fn new(params: DagParams) -> DagWorld {
        debug_assert!(params.spec.validate().is_ok());
        let name_to_idx = params
            .spec
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.name.clone(), i))
            .collect();
        let mut store = Store::new(params.put_service, params.get_service, params.miss_service);
        for key in params.spec.external_inputs() {
            store.stage(key, ());
        }
        let n = params.spec.jobs.len();
        DagWorld {
            name_to_idx,
            rng: SimRng::new(params.seed),
            store,
            done_at: vec![None; n],
            out: DagOutcome::default(),
            params,
        }
    }

    /// A job's next run, starting at `at`.
    fn job_unit(&mut self, at: Time) -> NextUnit {
        (ftsh::Env::new(), self.rng.next_u64(), at)
    }
}

impl CommandWorld for DagWorld {
    type Ev = StoreDone;

    fn exec(
        &mut self,
        ctx: &mut Ctx<'_, StoreDone>,
        client: ClientId,
        token: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome {
        let arg = |i: usize| spec.argv.get(i).map(ftsh::Istr::as_str).unwrap_or("");
        match spec.program() {
            // Local compute: no contention once the inputs are local.
            "run" => {
                let runtime = self.params.spec.jobs[client].runtime;
                ExecOutcome::At(ctx.now() + runtime, CmdResult::succeed())
            }
            // The carrier-sense probe: how many of the named job's
            // inputs exist. Reads the cached key set — free of the
            // store server.
            "df" => {
                let Some(&idx) = self.name_to_idx.get(arg(1)) else {
                    return ExecOutcome::Now(CmdResult::fail());
                };
                let job = &self.params.spec.jobs[idx];
                let present = job.inputs.iter().filter(|k| self.store.contains(k)).count();
                let present = present as u64;
                if ctx.sense(client, present, job.inputs.len() as u64) {
                    self.out.deferrals += 1;
                }
                ExecOutcome::At(ctx.now() + self.params.probe_cost, ctx.count(present))
            }
            verb @ ("publish" | "fetch") => {
                let key = arg(1);
                if key.is_empty() {
                    return ExecOutcome::Now(CmdResult::fail());
                }
                let op = if verb == "publish" {
                    StoreOp::Put(key.to_string(), ())
                } else {
                    StoreOp::Get(key.to_string())
                };
                schedule_done(ctx, self.store.request((client, token), op));
                ExecOutcome::Held
            }
            _ => ExecOutcome::Now(CmdResult::fail()),
        }
    }

    fn cancelled(&mut self, ctx: &mut Ctx<'_, StoreDone>, client: ClientId, token: CmdToken) {
        schedule_done(ctx, self.store.leave(|&who| who == (client, token)));
    }

    fn inject_fault(&mut self, _ctx: &mut Ctx<'_, StoreDone>, kind: &FaultKind) {
        // A kill arrives only when it hit a running job.
        if let FaultKind::ClientKill { .. } = kind {
            self.out.kills += 1;
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, StoreDone>, ev: StoreDone) {
        let StoreDone { seq } = ev;
        // Mid-flight store corruption: the ENOSPC window fails every
        // write; the job's `try` re-publishes after it.
        let admit = !ctx.windows().enospc_active(ctx.now());
        let Some(done) = self.store.finish(seq, |_, (), _| admit) else {
            return; // that service was aborted by a cancel
        };
        schedule_done(ctx, done.next);
        let success = match done.served {
            Served::Stored { .. } | Served::Hit(()) => true,
            Served::Miss(_) => false,
            Served::Refused => {
                self.out.puts_failed += 1;
                false
            }
        };
        store_reply(ctx, done.who, success);
    }

    fn unit_done(
        &mut self,
        ctx: &mut Ctx<'_, StoreDone>,
        client: ClientId,
        success: bool,
    ) -> Option<NextUnit> {
        if success {
            self.done_at[client] = Some(ctx.now());
            return None; // one unit per job: retire
        }
        self.out.retries += 1;
        Some(self.job_unit(ctx.now() + self.params.failure_think))
    }

    fn restart_client(
        &mut self,
        ctx: &mut Ctx<'_, StoreDone>,
        _client: ClientId,
    ) -> Option<NextUnit> {
        // Only a kill that hit a running job is revived, and a running
        // job has not finished.
        self.out.restarts += 1;
        Some(self.job_unit(ctx.now()))
    }
}

/// Results of one workflow run.
#[derive(Debug, Default)]
pub struct DagOutcome {
    /// Jobs that completed.
    pub jobs_done: usize,
    /// Makespan: when the last job completed, in seconds (`None` if
    /// any job never finished).
    pub makespan: Option<f64>,
    /// Per-job completion time in spec order: x = job index
    /// (1-based), y = seconds. Unfinished jobs are absent.
    pub job_series: Series,
    /// Jobs re-run after a failed unit (budget exhausted).
    pub retries: u64,
    /// Carrier-sense deferrals (Ethernet only).
    pub deferrals: u64,
    /// Expensive store misses served (blind polls of absent keys).
    pub failed_fetches: u64,
    /// Publishes failed by an ENOSPC window.
    pub puts_failed: u64,
    /// `client-kill` injections that hit a live job.
    pub kills: u64,
    /// Jobs re-admitted after a kill.
    pub restarts: u64,
    /// Aggregated ftsh log summary across all job VMs.
    pub client_totals: ftsh::LogSummary,
    /// Events popped from this run's own queue.
    pub events_popped: u64,
    /// VM ticks this run's driver issued.
    pub vm_ticks: u64,
    /// Past-scheduled events clamped forward to `now`.
    pub queue_clamps: u64,
    /// Events scheduled past the window's end, counted and not stored.
    pub events_discarded: u64,
    /// Wakes popped that an ended unit left behind ([`crate::RunCounts`]).
    pub stale_wakes: u64,
    /// Units a stale wake started before their start instant.
    pub early_units: u64,
}

/// Run the workflow for up to `duration` of virtual time.
///
/// ```
/// use gridworld::coord::{run_dag, DagParams};
/// use retry::Dur;
///
/// let o = run_dag(DagParams::default(), Dur::from_secs(300));
/// assert_eq!(o.jobs_done, 8);
/// ```
pub fn run_dag(params: DagParams, duration: Dur) -> DagOutcome {
    run_dag_traced(params, duration, None)
}

/// [`run_dag`] with an optional structured-trace sink.
pub fn run_dag_traced(params: DagParams, duration: Dur, sink: Option<SharedSink>) -> DagOutcome {
    params.spec.validate().expect("valid workflow");
    let n = params.spec.jobs.len();
    let world = DagWorld::new(params.clone());
    let mut rng = SimRng::new(params.seed ^ 0xC11E);
    let p = &params;
    let vms: Vec<Vm> = (0..n)
        .map(|c| {
            let job = &p.spec.jobs[c];
            let script = dag_job_script(p.discipline, job, p.dep_timeout, p.fetch_timeout);
            let seed = rng.fork(c as u64).next_u64();
            coord_vm(
                &script,
                p.discipline,
                ftsh::Env::new(),
                seed,
                p.backoff_base,
                p.backoff_cap,
            )
        })
        .collect();
    let starts = staggered_starts(&mut rng, n, params.start_stagger);
    let mut driver = SimDriver::with_starts(world, vms, starts);
    let run = driver.run_traced(sink, params.fault_plan, Time::ZERO + duration, |_| {});
    let w = driver.world;
    let mut job_series = Series::new(params.discipline.label());
    for (i, at) in w.done_at.iter().enumerate() {
        if let Some(t) = at {
            job_series.push_xy((i + 1) as f64, t.as_secs_f64());
        }
    }
    let jobs_done = w.done_at.iter().filter(|t| t.is_some()).count();
    let makespan = if jobs_done == n {
        w.done_at
            .iter()
            .copied()
            .flatten()
            .map(Time::as_secs_f64)
            .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.max(t))))
    } else {
        None
    };
    DagOutcome {
        jobs_done,
        makespan,
        job_series,
        failed_fetches: w.store.misses(),
        client_totals: driver.log_totals,
        events_popped: run.events_popped,
        vm_ticks: run.vm_ticks,
        queue_clamps: run.queue_clamps,
        events_discarded: run.events_discarded,
        stale_wakes: run.stale_wakes,
        early_units: run.early_units,
        ..w.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig9_fault_plan;
    use simgrid::faults::FaultSpec;

    #[test]
    fn spec_json_round_trips() {
        let spec = DagSpec::diamond();
        let text = spec.to_json();
        let back = DagSpec::parse_json(&text).expect("parses");
        assert_eq!(spec, back);
        assert_eq!(back.to_json(), text, "stable serialization");
    }

    #[test]
    fn validate_rejects_cycles_and_duplicate_producers() {
        let mut cyc = DagSpec::diamond();
        cyc.jobs[0].inputs = vec!["archive".into()]; // extract now needs the sink
        assert!(cyc.validate().unwrap_err().contains("cycle"));

        let mut dup = DagSpec::diamond();
        dup.jobs[1].outputs.push("band-b".into());
        assert!(dup.validate().unwrap_err().contains("band-b"));

        assert!(DagSpec::diamond().validate().is_ok());
        assert!(DagSpec::diamond().external_inputs().is_empty());
    }

    #[test]
    fn all_disciplines_complete_without_faults() {
        for d in Discipline::ALL {
            let p = DagParams {
                discipline: d,
                ..DagParams::default()
            };
            let o = run_dag(p, Dur::from_secs(300));
            assert_eq!(o.jobs_done, 8, "{d}");
            assert!(o.makespan.is_some(), "{d}");
            assert_eq!(o.job_series.len(), 8, "{d}");
        }
    }

    #[test]
    fn ethernet_senses_aloha_polls() {
        let run = |d| {
            run_dag(
                DagParams {
                    discipline: d,
                    ..DagParams::default()
                },
                Dur::from_secs(300),
            )
        };
        let e = run(Discipline::Ethernet);
        assert!(e.deferrals > 0);
        assert_eq!(e.failed_fetches, 0, "sensed-free fetches always hit");
        let a = run(Discipline::Aloha);
        assert!(a.failed_fetches > 0, "blind polling misses");
    }

    fn fault_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with(FaultSpec::once(
                Time::ZERO + Dur::from_secs(1),
                FaultKind::EnospcWindow {
                    duration: Dur::from_secs(8),
                },
            ))
            .with(FaultSpec::once(
                Time::ZERO + Dur::from_secs(6),
                FaultKind::ClientKill {
                    client: 4, // merge
                    restart: Some(Dur::from_secs(5)),
                },
            ))
    }

    #[test]
    fn workflow_survives_store_corruption_and_job_kill() {
        for d in Discipline::ALL {
            let p = DagParams {
                discipline: d,
                seed: 2003,
                fault_plan: fault_plan(2003),
                ..DagParams::default()
            };
            let o = run_dag(p, Dur::from_secs(600));
            assert_eq!(o.jobs_done, 8, "{d}");
            // The Ethernet put reaches the store promptly, inside the
            // window. The blind disciplines' own miss storm congests
            // the FIFO so badly their put is served after the window
            // closes — the fault they feel is their own polling.
            if d == Discipline::Ethernet {
                assert!(o.puts_failed > 0, "{d}: the window must bite");
            } else {
                assert!(o.failed_fetches > 0, "{d}: the poll storm must show");
            }
            assert_eq!(o.kills, 1, "{d}");
            assert_eq!(o.restarts, 1, "{d}");
        }
    }

    #[test]
    fn a_second_kill_inside_the_downtime_changes_nothing() {
        // fig9's kill takes `merge` down from 6 s to 11 s. Killing it
        // again at 8 s finds no running job: nothing is counted, and no
        // second revival is scheduled.
        let again = FaultSpec::once(
            Time::from_secs(8),
            FaultKind::ClientKill {
                client: 4,
                restart: Some(Dur::from_secs(5)),
            },
        );
        for d in Discipline::ALL {
            let run = |fault_plan: FaultPlan| {
                let p = DagParams {
                    discipline: d,
                    seed: 2003,
                    fault_plan,
                    ..DagParams::default()
                };
                let o = run_dag(p, Dur::from_secs(600));
                (o.kills, o.restarts, o.retries, o.job_series)
            };
            let once = run(fig9_fault_plan(2003));
            assert_eq!((once.0, once.1), (1, 1), "{d}");
            let twice = run(fig9_fault_plan(2003).with(again.clone()));
            assert_eq!(twice, once, "{d}");
        }
    }
}
