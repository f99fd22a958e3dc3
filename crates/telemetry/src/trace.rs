//! Per-request tracing: stack-owned span collection.
//!
//! A [`TraceCtx`] lives on the request's stack and accumulates up to
//! [`MAX_SPANS`] fixed-size span records — no heap allocation anywhere on
//! the request path.  When the request finishes, the context is offered to
//! the slow log ([`crate::slowlog`]), the one store of finished traces.

use std::time::Instant;

/// Maximum spans retained per request; later spans are dropped.
pub const MAX_SPANS: usize = 8;

/// Instrumented request stages, in rough pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Wire frame parse (daemon only).
    Decode,
    /// Admission-gate decision for cold (cache-miss) work.
    Admission,
    /// Canonicalization + exact-cache probe.
    CacheProbe,
    /// Blocking on another request's in-flight computation.
    CoalesceWait,
    /// The DP search itself; `detail` is the number of DP nodes it
    /// populated.
    Search,
    /// Response encode + flush (daemon only).
    Flush,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::CacheProbe => "cache_probe",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::Search => "search",
            Stage::Flush => "flush",
        }
    }
}

/// One typed span event: stage, start offset from request epoch, duration,
/// and a stage-specific detail word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub detail: u64,
}

/// Stack-owned span accumulator carried by a request. A disabled context
/// never touches the clock, so the instrumented path degrades to a handful
/// of predictable branches when telemetry is off.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    enabled: bool,
    request_id: u64,
    epoch: Instant,
    n: u8,
    spans: [Span; MAX_SPANS],
}

const ZERO_SPAN: Span = Span {
    stage: Stage::Decode,
    start_ns: 0,
    dur_ns: 0,
    detail: 0,
};

impl TraceCtx {
    /// An active context whose epoch is "now".
    pub fn new(request_id: u64) -> TraceCtx {
        TraceCtx::starting_at(request_id, Instant::now())
    }

    /// An active context with an explicit epoch — used when timing started
    /// before the request id was known (e.g. frame decode).
    pub fn starting_at(request_id: u64, epoch: Instant) -> TraceCtx {
        TraceCtx {
            enabled: true,
            request_id,
            epoch,
            n: 0,
            spans: [ZERO_SPAN; MAX_SPANS],
        }
    }

    /// A no-op context: every method is a branch on `enabled` and returns
    /// immediately.  Construction reads the clock once per process (a
    /// cached epoch), so putting one on every untraced request is free.
    pub fn disabled() -> TraceCtx {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        TraceCtx {
            enabled: false,
            request_id: 0,
            // Never read on the disabled path; any fixed Instant works.
            epoch: *EPOCH.get_or_init(Instant::now),
            n: 0,
            spans: [ZERO_SPAN; MAX_SPANS],
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Nanoseconds since the request epoch; 0 when disabled (no clock read).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Append a span that started at `start_ns` (from [`Self::now_ns`]) and
    /// ends now.
    #[inline]
    pub fn span(&mut self, stage: Stage, start_ns: u64, detail: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.push(Span {
            stage,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            detail,
        });
    }

    /// Append a fully specified span (caller measured the duration).
    #[inline]
    pub fn span_with(&mut self, stage: Stage, start_ns: u64, dur_ns: u64, detail: u64) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            stage,
            start_ns,
            dur_ns,
            detail,
        });
    }

    fn push(&mut self, s: Span) {
        if (self.n as usize) < MAX_SPANS {
            self.spans[self.n as usize] = s;
            self.n += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.n as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_overflow_truncates() {
        let mut c = TraceCtx::new(7);
        for i in 0..(MAX_SPANS + 3) {
            c.span_with(Stage::Search, i as u64, 1, 0);
        }
        assert_eq!(c.spans().len(), MAX_SPANS);
        assert_eq!(c.spans()[MAX_SPANS - 1].start_ns, MAX_SPANS as u64 - 1);
    }

    #[test]
    fn disabled_ctx_is_inert() {
        let mut c = TraceCtx::disabled();
        assert_eq!(c.now_ns(), 0);
        c.span(Stage::Search, 0, 0);
        c.span_with(Stage::Flush, 0, 1, 2);
        assert!(c.spans().is_empty());
    }
}
