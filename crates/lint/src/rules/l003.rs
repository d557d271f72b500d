//! L003 — determinism of the value path (PRs 2–3). The normalization /
//! whitening kernels must be pure functions of their inputs: the same
//! request produces the same bits whatever the wall clock, thread count
//! or scheduling says. Value-path modules (engine, backends, SIMD,
//! whitening, soft-float — configured by path, or self-declared with
//! `// normlint: value-path`) therefore may not read `Instant::now` /
//! `SystemTime::now` or call `thread::sleep`; timing belongs to the
//! service, server and bench layers. Nor may they `spawn` threads: every
//! partitioned call forks through `executor::fork` (executor.rs), so the
//! per-call scoped fork stays in one place.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::TokenKind;
use crate::rules::RuleCtx;

/// Identifiers that smell of wall-clock / scheduling nondeterminism.
const BANNED: &[&str] = &["Instant", "SystemTime", "sleep", "sleep_ms", "yield_now"];

/// Flag wall-clock / sleep identifiers and thread spawns in value-path
/// modules.
pub fn run(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.value_path || ctx.in_test_dir {
        return;
    }
    let scope = ctx.scope;
    for &ti in &scope.code {
        let t = &scope.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(ctx.src);
        let message = if BANNED.contains(&name) {
            format!(
                "`{name}` in a value-path module — kernels must be deterministic; \
                 move timing to the service/bench layer"
            )
        } else if name == "spawn" {
            "`spawn` in a value-path module — partition through `executor::fork` \
             (executor.rs), the one fork-join vehicle"
                .to_string()
        } else {
            continue;
        };
        if scope.in_test_region(t.line) {
            continue;
        }
        out.push(ctx.diag(RuleId::L003, t.line, t.col, message));
    }
}
