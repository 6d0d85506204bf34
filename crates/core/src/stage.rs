//! The one boundary every pipeline stage crosses.
//!
//! A stage is named by its span, `stage.<name>`. [`PipelineConfig::gate`]
//! admits it: a deadline check, the `stage.<name>` failpoint, a second
//! check. [`run`] gates a stage whose output persists, looks the
//! artifact up in the store when one is attached, computes on a miss and
//! persists what it computed. [`span`] is the stage span prologue. The
//! infallible entry points go through [`infallible`], which clears the
//! deadline, so failpoints fire on every path and deadlines bind only
//! the fallible `try_*` twins.

use fgbs_store::{ArtifactKind, CodecError};
use fgbs_trace::{RequestGuard, Span};

use crate::config::PipelineConfig;
use crate::error::PipelineError;

impl PipelineConfig {
    /// Admit the stage whose span is `name` (`stage.<stage>`): check the
    /// deadline, fire the `stage.<stage>` failpoint (an armed `delay`
    /// rule sleeps here), then check again, so an injected delay can
    /// expire a request. Every stage, and the daemon's memoised profile,
    /// passes through here.
    pub fn gate(&self, name: &'static str) -> Result<(), PipelineError> {
        let stage = name.strip_prefix("stage.").unwrap_or(name);
        self.check_deadline(stage)?;
        fgbs_fault::maybe_delay(name);
        self.check_deadline(stage)
    }

    /// Fail with [`PipelineError::DeadlineExceeded`] at `stage` when the
    /// deadline (if any) has expired, without firing a failpoint.
    pub fn check_deadline(&self, stage: &'static str) -> Result<(), PipelineError> {
        match self.deadline {
            Some(d) if d.expired() => Err(PipelineError::DeadlineExceeded { stage }),
            _ => Ok(()),
        }
    }
}

/// Where a stage's output persists and how it is coded. The key is
/// derived only when a store is attached.
pub(crate) struct Artifact<K, D, T> {
    pub(crate) kind: ArtifactKind,
    pub(crate) key: K,
    pub(crate) encode: fn(&T) -> Vec<u8>,
    pub(crate) decode: D,
}

/// Gate the stage `name`, then answer it from the store or compute and
/// persist it. Store failures, missing or undecodable artifacts fall
/// back to computing; the pipeline is deterministic, so a stored
/// artifact is bitwise-identical to a recomputation.
pub(crate) fn run<T>(
    cfg: &PipelineConfig,
    name: &'static str,
    artifact: Artifact<impl FnOnce() -> String, impl FnOnce(&[u8]) -> Result<T, CodecError>, T>,
    compute: impl FnOnce() -> T,
) -> Result<T, PipelineError> {
    cfg.gate(name)?;
    let Some(store) = &cfg.store else {
        return Ok(compute());
    };
    let key = (artifact.key)();
    if let Ok(Some(bytes)) = store.get(artifact.kind, &key) {
        if let Ok(out) = (artifact.decode)(&bytes) {
            return Ok(out);
        }
    }
    let out = compute();
    let _ = store.put(artifact.kind, &key, &(artifact.encode)(&out));
    Ok(out)
}

/// Run a fallible stage with the deadline cleared: the contract of the
/// infallible entry points.
pub(crate) fn infallible<T>(
    cfg: &PipelineConfig,
    stage: impl FnOnce(&PipelineConfig) -> Result<T, PipelineError>,
) -> T {
    let free = PipelineConfig {
        deadline: None,
        ..cfg.clone()
    };
    stage(&free).expect("a stage without a deadline is infallible")
}

/// The stage span prologue: install the run's request id
/// ([`PipelineConfig::request_id`]) as the ambient one for the stage's
/// scope, so pool workers re-enter it, then open `name` with its
/// leading argument and, for a request, the `req` arg. Bind both halves
/// (`let (_request, span) = …`): the span, bound last, records before
/// the request id is uninstalled.
pub(crate) fn span(
    cfg: &PipelineConfig,
    name: &'static str,
    (key, value): (&'static str, usize),
) -> (RequestGuard, Span) {
    let request = match cfg.request_id {
        0 => fgbs_trace::enter_request(fgbs_trace::current_request_id()),
        id => fgbs_trace::enter_request(id),
    };
    let mut span = fgbs_trace::span(name);
    span.arg_u64(key, value as u64);
    if cfg.request_id != 0 {
        span.arg_u64("req", cfg.request_id);
    }
    (request, span)
}
