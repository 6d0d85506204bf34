//! The application model: codelets plus an invocation schedule.

use fgbs_isa::{Binding, Codelet};

/// One step of an application's execution: `repeats` consecutive
/// invocations of one codelet under one binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Index into [`Application::codelets`].
    pub codelet: usize,
    /// Index into that codelet's context table
    /// ([`Application::contexts`]`[codelet]`).
    pub context: usize,
    /// Consecutive invocations at this point of the schedule.
    pub repeats: u64,
}

/// An application: the unit the paper's Step A decomposes.
///
/// The schedule is executed [`Application::rounds`] times (modelling the
/// outer time-stepping loop of the NAS solvers); within one round the
/// entries run in order. A codelet that appears in several entries with
/// different contexts is *context-varying* — the paper's first class of
/// ill-behaved codelets, since extraction captures only the first context.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Application name (`BT`, `CG`, …).
    pub name: String,
    /// The codelets, in declaration order.
    pub codelets: Vec<Codelet>,
    /// Per-codelet context tables (distinct bindings used across the run).
    pub contexts: Vec<Vec<Binding>>,
    /// One round of the invocation schedule.
    pub schedule: Vec<ScheduleEntry>,
    /// Number of rounds (time steps).
    pub rounds: u64,
}

impl Application {
    /// Total invocations of codelet `i` over the whole run.
    pub fn invocations_of(&self, i: usize) -> u64 {
        self.rounds
            * self
                .schedule
                .iter()
                .filter(|e| e.codelet == i)
                .map(|e| e.repeats)
                .sum::<u64>()
    }

    /// Context of the *first* invocation of codelet `i` in schedule order —
    /// the one Codelet Finder captures.
    pub fn first_context(&self, i: usize) -> Option<&Binding> {
        self.schedule
            .iter()
            .find(|e| e.codelet == i)
            .map(|e| &self.contexts[i][e.context])
    }

    /// Number of distinct contexts codelet `i` is invoked with.
    pub fn context_count(&self, i: usize) -> usize {
        let mut used: Vec<usize> = self
            .schedule
            .iter()
            .filter(|e| e.codelet == i)
            .map(|e| e.context)
            .collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// Indices of codelets that can be outlined by the extractor.
    pub fn extractable(&self) -> Vec<usize> {
        (0..self.codelets.len())
            .filter(|&i| self.codelets[i].extractable)
            .collect()
    }

    /// Validate internal consistency (schedule indices, context tables,
    /// binding shapes).
    ///
    /// # Panics
    ///
    /// Panics with a description on the first inconsistency. Suites call
    /// this from their tests.
    pub fn validate(&self) {
        assert_eq!(
            self.codelets.len(),
            self.contexts.len(),
            "app {}: contexts table size mismatch",
            self.name
        );
        assert!(self.rounds > 0, "app {}: zero rounds", self.name);
        assert!(!self.schedule.is_empty(), "app {}: empty schedule", self.name);
        for (i, e) in self.schedule.iter().enumerate() {
            assert!(
                e.codelet < self.codelets.len(),
                "app {}: schedule[{i}] references codelet {}",
                self.name,
                e.codelet
            );
            assert!(
                e.context < self.contexts[e.codelet].len(),
                "app {}: schedule[{i}] references context {} of codelet {}",
                self.name,
                e.context,
                self.codelets[e.codelet].name
            );
            assert!(e.repeats > 0, "app {}: schedule[{i}] repeats 0", self.name);
        }
        for (ci, (c, ctxs)) in self.codelets.iter().zip(&self.contexts).enumerate() {
            assert!(
                !ctxs.is_empty(),
                "app {}: codelet {} has no context",
                self.name,
                c.name
            );
            for b in ctxs {
                assert_eq!(
                    b.arrays.len(),
                    c.arrays.len(),
                    "app {}: codelet {} context has wrong array count",
                    self.name,
                    c.name
                );
                assert_eq!(
                    b.params.len(),
                    c.n_params,
                    "app {}: codelet {} context has wrong param count",
                    self.name,
                    c.name
                );
            }
            // Every codelet should actually be scheduled.
            assert!(
                self.schedule.iter().any(|e| e.codelet == ci),
                "app {}: codelet {} never scheduled",
                self.name,
                c.name
            );
        }
    }
}

/// Incremental construction of an [`Application`].
#[derive(Debug)]
pub struct ApplicationBuilder {
    name: String,
    codelets: Vec<Codelet>,
    contexts: Vec<Vec<Binding>>,
    schedule: Vec<ScheduleEntry>,
    rounds: u64,
}

impl ApplicationBuilder {
    /// Start an application named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationBuilder {
            name: name.into(),
            codelets: Vec::new(),
            contexts: Vec::new(),
            schedule: Vec::new(),
            rounds: 1,
        }
    }

    /// Add a codelet with its context table; returns its index.
    pub fn codelet(&mut self, codelet: Codelet, contexts: Vec<Binding>) -> usize {
        self.codelets.push(codelet);
        self.contexts.push(contexts);
        self.codelets.len() - 1
    }

    /// Append a schedule entry.
    pub fn invoke(&mut self, codelet: usize, context: usize, repeats: u64) -> &mut Self {
        self.schedule.push(ScheduleEntry {
            codelet,
            context,
            repeats,
        });
        self
    }

    /// Set the number of rounds (time steps).
    pub fn rounds(&mut self, rounds: u64) -> &mut Self {
        self.rounds = rounds;
        self
    }

    /// Finish and validate.
    pub fn build(self) -> Application {
        let app = Application {
            name: self.name,
            codelets: self.codelets,
            contexts: self.contexts,
            schedule: self.schedule,
            rounds: self.rounds,
        };
        app.validate();
        app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};

    fn copy(name: &str) -> Codelet {
        CodeletBuilder::new(name, "T")
            .array("s", Precision::F64)
            .array("d", Precision::F64)
            .param_loop("n")
            .store("d", &[1], |b| b.load("s", &[1]))
            .build()
    }

    fn ctx(c: &Codelet, n: u64, base: u64) -> Binding {
        BindingBuilder::new(base)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(c)
    }

    fn tiny_app() -> Application {
        let c0 = copy("a");
        let c1 = copy("b");
        let b00 = ctx(&c0, 64, 0);
        let b01 = ctx(&c0, 128, 1 << 20);
        let b1 = ctx(&c1, 64, 2 << 20);
        let mut ab = ApplicationBuilder::new("T");
        let i0 = ab.codelet(c0, vec![b00, b01]);
        let i1 = ab.codelet(c1, vec![b1]);
        ab.invoke(i0, 0, 3).invoke(i1, 0, 2).invoke(i0, 1, 1).rounds(5);
        ab.build()
    }

    #[test]
    fn invocation_counts_scale_with_rounds() {
        let app = tiny_app();
        assert_eq!(app.invocations_of(0), 5 * (3 + 1));
        assert_eq!(app.invocations_of(1), 5 * 2);
    }

    #[test]
    fn first_context_is_schedule_order() {
        let app = tiny_app();
        let b = app.first_context(0).unwrap();
        assert_eq!(b.params[0], 64);
        assert_eq!(app.context_count(0), 2);
        assert_eq!(app.context_count(1), 1);
    }

    #[test]
    fn extractable_lists_all_by_default() {
        let app = tiny_app();
        assert_eq!(app.extractable(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "never scheduled")]
    fn unscheduled_codelet_rejected() {
        let c0 = copy("a");
        let c1 = copy("b");
        let b0 = ctx(&c0, 64, 0);
        let b1 = ctx(&c1, 64, 1 << 20);
        let mut ab = ApplicationBuilder::new("T");
        let i0 = ab.codelet(c0, vec![b0]);
        let _i1 = ab.codelet(c1, vec![b1]);
        ab.invoke(i0, 0, 1);
        ab.build();
    }

    #[test]
    #[should_panic(expected = "references context")]
    fn bad_context_index_rejected() {
        let c0 = copy("a");
        let b0 = ctx(&c0, 64, 0);
        let mut ab = ApplicationBuilder::new("T");
        let i0 = ab.codelet(c0, vec![b0]);
        ab.invoke(i0, 1, 1);
        ab.build();
    }
}
