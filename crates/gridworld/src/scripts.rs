//! The ftsh scripts the clients run — transcribed from §5 of the
//! paper, one per scenario and discipline, plus the generated script
//! of the live arena's clients.
//!
//! The three disciplines are "minor variations on scripts written with
//! ftsh" (§5): the Fixed client is the Aloha script run with no
//! backoff (`BackoffPolicy::None`), and the Ethernet client adds a
//! carrier-sense prelude.

use ftsh::{parse, Env, Script, Vm};
use retry::{Discipline, Dur};
use std::fmt::Write as _;

/// Submission scenario (§5, Figures 1–3). The Aloha client is:
///
/// ```text
/// try for 5 minutes
///   condor_submit submit.job
/// end
/// ```
pub fn submit_aloha() -> Script {
    parse(
        "try for 5 minutes\n\
           condor_submit submit.job\n\
         end\n",
    )
    .expect("static script parses")
}

/// The Ethernet submission client "senses the carrier" by reading the
/// free file-descriptor count and deferring below the threshold:
///
/// ```text
/// try for 5 minutes
///   cut -f2 /proc/sys/fs/file-nr -> n
///   if ${n} .lt. <threshold>
///     failure
///   else
///     condor_submit submit.job
///   end
/// end
/// ```
pub fn submit_ethernet(threshold: u64) -> Script {
    parse(&format!(
        "try for 5 minutes\n\
           cut -f2 /proc/sys/fs/file-nr -> n\n\
           if ${{n}} .lt. {threshold}\n\
             failure\n\
           else\n\
             condor_submit submit.job\n\
           end\n\
         end\n",
    ))
    .expect("static script parses")
}

/// Producer scenario (§5, Figures 4–5). Aloha producer for one output
/// file: generate it, then retry writing it into the shared buffer.
pub fn buffer_aloha() -> Script {
    parse(
        "make-output -> size\n\
         try for 5 minutes\n\
           write-output ${size}\n\
         end\n",
    )
    .expect("static script parses")
}

/// Ethernet producer: estimate the space incomplete files will need
/// (average of the completed ones) and defer when none would remain.
pub fn buffer_ethernet() -> Script {
    parse(
        "make-output -> size\n\
         try for 5 minutes\n\
           estimate-space -> free\n\
           if ${free} .lt. ${size}\n\
             failure\n\
           else\n\
             write-output ${size}\n\
           end\n\
         end\n",
    )
    .expect("static script parses")
}

/// Reader scenario (§5, Figures 6–7). The Aloha reader picks servers in
/// the (shuffled) order `h1 h2 h3` and gives each data transfer 60
/// seconds — "a good round number" chosen on an unsatisfactory basis:
///
/// ```text
/// try for 900 seconds
///   forany host in ${h1} ${h2} ${h3}
///     try for 60 seconds
///       wget http://${host}/data
///     end
///   end
/// end
/// ```
pub fn reader_aloha() -> Script {
    parse(
        "try for 900 seconds\n\
           forany host in ${h1} ${h2} ${h3}\n\
             try for 60 seconds\n\
               wget http://${host}/data\n\
             end\n\
           end\n\
         end\n",
    )
    .expect("static script parses")
}

/// The Ethernet reader first fetches a well-known one-byte flag file
/// with a tight limit; only a live server earns the real transfer.
pub fn reader_ethernet() -> Script {
    parse(
        "try for 900 seconds\n\
           forany host in ${h1} ${h2} ${h3}\n\
             try for 5 seconds\n\
               wget http://${host}/flag\n\
             end\n\
             try for 60 seconds\n\
               wget http://${host}/data\n\
             end\n\
           end\n\
         end\n",
    )
    .expect("static script parses")
}

/// Budgets of one live-arena unit: `try for 6 seconds or 8 times`.
const ARENA_UNIT_BUDGET: Dur = Dur::from_secs(6);
const ARENA_UNIT_ATTEMPTS: u32 = 8;
/// Free schedd slots under which the live-arena Ethernet client defers.
pub const ARENA_SENSE_THRESHOLD: u64 = 1;

/// The script one live-arena client runs against a real `gridd`:
/// `jobs` sequential submission units, each an attempt- and
/// time-budgeted `try` whose failure the `catch` absorbs so the next
/// unit still runs. The Ethernet variant senses the carrier the way
/// [`submit_ethernet`] does — read the schedd's free slots, defer
/// while there are none — turning a stampede into a deferral.
/// `${client}` comes in through the environment, so one parsed script
/// serves the whole population.
///
/// ```text
/// try for 6 seconds or 8 times
///   sense -> free
///   if ${free} .lt. 1
///     failure
///   else
///     submit job-${client}-1
///   end
/// catch
///   success
/// end
/// ```
pub fn arena_text(discipline: Discipline, jobs: usize) -> String {
    let mut s = String::new();
    for k in 1..=jobs {
        let _ = writeln!(
            s,
            "try for {} seconds or {ARENA_UNIT_ATTEMPTS} times",
            ARENA_UNIT_BUDGET.as_secs()
        );
        let submit = format!("submit job-${{client}}-{k}");
        if discipline.uses_carrier_sense() {
            let _ = writeln!(
                s,
                "  sense -> free\n  if ${{free}} .lt. {ARENA_SENSE_THRESHOLD}"
            );
            let _ = writeln!(s, "    failure\n  else\n    {submit}\n  end");
        } else {
            let _ = writeln!(s, "  {submit}");
        }
        let _ = writeln!(s, "catch\n  success\nend");
    }
    s
}

/// [`arena_text`], parsed.
pub fn arena_script(discipline: Discipline, jobs: usize) -> Script {
    parse(&arena_text(discipline, jobs)).expect("generated script parses")
}

/// The longest an [`arena_script`] client can run: every unit is
/// bounded by its `try for` budget. The live harness sizes its
/// watchdog from this.
pub fn arena_worst_case(jobs: usize) -> Dur {
    ARENA_UNIT_BUDGET * jobs as u64
}

/// Build a VM for one work unit under a discipline: the discipline's
/// backoff policy is installed as the VM default (Fixed ⇒ no delay).
pub fn unit_vm(script: &Script, discipline: Discipline, env: Env, seed: u64) -> Vm {
    let mut vm = Vm::with_env_seed(script, env, seed);
    vm.set_default_backoff(discipline.backoff());
    vm
}

/// The script for the submission scenario under a discipline.
pub fn submit_script(discipline: Discipline, threshold: u64) -> Script {
    match discipline {
        Discipline::Ethernet => submit_ethernet(threshold),
        Discipline::Aloha | Discipline::Fixed => submit_aloha(),
    }
}

/// The script for the buffer scenario under a discipline.
pub fn buffer_script(discipline: Discipline) -> Script {
    match discipline {
        Discipline::Ethernet => buffer_ethernet(),
        Discipline::Aloha | Discipline::Fixed => buffer_aloha(),
    }
}

/// The script for the reader scenario under a discipline (the paper
/// compares only Aloha and Ethernet here; Fixed degenerates to Aloha
/// without backoff).
pub fn reader_script(discipline: Discipline) -> Script {
    match discipline {
        Discipline::Ethernet => reader_ethernet(),
        Discipline::Aloha | Discipline::Fixed => reader_aloha(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsh::pretty;

    #[test]
    fn all_scripts_parse_and_roundtrip() {
        for s in [
            submit_aloha(),
            submit_ethernet(1000),
            buffer_aloha(),
            buffer_ethernet(),
            reader_aloha(),
            reader_ethernet(),
        ] {
            let printed = pretty(&s);
            let again = parse(&printed).expect("pretty output reparses");
            assert_eq!(s, again);
        }
    }

    #[test]
    fn ethernet_scripts_contain_carrier_sense() {
        let p = pretty(&submit_ethernet(1000));
        assert!(p.contains(".lt. 1000"));
        assert!(p.contains("file-nr"));
        let p = pretty(&buffer_ethernet());
        assert!(p.contains("estimate-space"));
        let p = pretty(&reader_ethernet());
        assert!(p.contains("/flag"));
    }

    #[test]
    fn arena_script_is_one_budgeted_unit_per_job() {
        let aloha = arena_text(Discipline::Aloha, 3);
        assert_eq!(aloha.matches("try for 6 seconds or 8 times").count(), 3);
        assert!(aloha.contains("submit job-${client}-3"));
        assert!(!aloha.contains("sense"), "aloha submits blind");
        assert_eq!(aloha, arena_text(Discipline::Fixed, 3));
        let eth = arena_text(Discipline::Ethernet, 3);
        assert_eq!(
            eth.matches("  sense -> free\n  if ${free} .lt. 1\n")
                .count(),
            3
        );
        assert_eq!(eth.matches("    submit job-${client}-").count(), 3);
        assert_eq!(arena_script(Discipline::Ethernet, 3).len(), 3);
        assert_eq!(arena_worst_case(3), Dur::from_secs(18));
    }

    #[test]
    fn discipline_script_selection() {
        assert_eq!(
            submit_script(Discipline::Fixed, 1000),
            submit_script(Discipline::Aloha, 1000),
            "fixed runs the aloha script (minus backoff)"
        );
        assert_ne!(
            submit_script(Discipline::Ethernet, 1000),
            submit_script(Discipline::Aloha, 1000)
        );
    }
}
