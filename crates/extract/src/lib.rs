//! Codelet detection, extraction and microbenchmark replay.
//!
//! This crate is the Codelet Finder (CF) substitute. It models:
//!
//! * **Applications** ([`Application`]) as a set of codelets plus an
//!   *invocation schedule*: which codelet runs next, under which binding
//!   (dataset), how many times, over how many outer rounds (time steps).
//! * **Profiling runs** ([`run_application`]): executing the full schedule
//!   on one machine with instrumentation probes around every invocation —
//!   the paper's Step B. Cache state flows from one codelet to the next,
//!   exactly as in the original program.
//! * **Detection** ([`CodeletFinder`]): which loops are outlineable and
//!   long enough to measure (the paper discards codelets under a cycle
//!   threshold; CF cannot outline everything — detected codelets cover
//!   ~92 % of NAS time).
//! * **Extraction** ([`MemoryDump`], [`Microbenchmark`]): capturing the
//!   memory of the *first* invocation and replaying the codelet as a
//!   standalone program on a fresh machine, with the invocation-count rule
//!   of Step D (run ≥ 1 ms, ≥ 10 invocations, keep the median).
//! * **Well-behavedness** ([`behaves_well`]): the ±10 % standalone-vs-
//!   in-app check that gates representative selection.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod dump;
mod finder;
mod micro;
mod profile;
mod wellbehaved;

pub use app::{Application, ApplicationBuilder, ScheduleEntry};
pub use dump::MemoryDump;
pub use finder::{CodeletFinder, Detection};
pub use micro::{MicroResult, Microbenchmark, MIN_INVOCATIONS, MIN_RUN_SECONDS};
pub use profile::{run_application, AppRun, CodeletProfile};
pub use wellbehaved::{behaves_well, relative_difference, WELL_BEHAVED_TOLERANCE};

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};

    /// A dump payload too short to hold even the magic word must panic on
    /// restore rather than read past the end of the buffer.
    #[test]
    #[should_panic(expected = "dump truncated")]
    fn underflow_panics() {
        let c = CodeletBuilder::new("k", "T")
            .array("x", Precision::F64)
            .param_loop("n")
            .store("x", &[1], |b| b.constant(1.0))
            .build();
        let b = BindingBuilder::new(0).vector(64, 8).param(64).build_for(&c);
        let mut ab = ApplicationBuilder::new("T");
        let i = ab.codelet(c, vec![b]);
        ab.invoke(i, 0, 1);
        let app = ab.build();
        let mut d = MemoryDump::capture(&app, 0).unwrap();
        d.payload = vec![1];
        let _ = d.restore(&app.codelets[0]);
    }
}
