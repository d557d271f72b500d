//! L005 — lock-order hazard (PR 4's sharded service). Acquiring a second
//! mutex while a shard guard is live risks an ABBA deadlock between the
//! queue, backend and whiten locks; PR 4's discipline is
//! acquire-use-drop, with `drop(guard)` before crossing to another lock.
//!
//! The pass is a linear scan with block-depth tracking, not a borrow
//! checker: it follows `let`-bound guards from the acquisition set
//! (`.lock()`, `.try_lock()` and the shard helpers `queue_of` /
//! `backend_of` / `whiten_of`), retires them at `drop(name)` or when
//! their block closes, and flags any new acquisition made while one is
//! live. `wait_on`/`wait_timeout_on` are *not* acquisitions — they
//! consume and return the guard they are given (condvar waits release
//! the lock). `.read()`/`.write()` are excluded to avoid colliding with
//! `io::Read`/`io::Write`; the workspace's RwLocks are all behind the
//! shard helpers anyway.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::TokenKind;
use crate::rules::RuleCtx;

/// Method names that acquire a lock (L007 shares the set).
pub(crate) const ACQUIRERS: &[&str] = &["lock", "try_lock", "queue_of", "backend_of", "whiten_of"];

struct Guard {
    name: String,
    depth: usize,
}

/// Flag a second lock acquisition while a tracked guard is live.
pub fn run(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.in_test_dir {
        return;
    }
    let scope = ctx.scope;
    let code = &scope.code;
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // The `let` binding name of the statement in flight, if any, and
    // whether that statement performed an acquisition.
    let mut pending: Option<String> = None;
    let mut pending_acquires = false;

    let mut k = 0usize;
    while k < code.len() {
        let t = &scope.tokens[code[k]];
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(';') => {
                if pending_acquires {
                    if let Some(name) = pending.take() {
                        guards.push(Guard { name, depth });
                    }
                }
                pending = None;
                pending_acquires = false;
            }
            TokenKind::Ident => {
                let name = t.text(ctx.src);
                if name == "let" {
                    // `let [mut] NAME` — remember the binding name.
                    let mut j = k + 1;
                    if matches!(code.get(j), Some(&i) if scope.tokens[i].is_ident(ctx.src, "mut")) {
                        j += 1;
                    }
                    if let Some(&i) = code.get(j) {
                        let bt = &scope.tokens[i];
                        if bt.kind == TokenKind::Ident {
                            pending = Some(bt.text(ctx.src).to_string());
                            pending_acquires = false;
                        }
                    }
                } else if name == "drop"
                    && matches!(code.get(k + 1), Some(&i) if scope.tokens[i].kind == TokenKind::Punct('('))
                {
                    if let Some(&i) = code.get(k + 2) {
                        let at = &scope.tokens[i];
                        if at.kind == TokenKind::Ident {
                            let victim = at.text(ctx.src);
                            guards.retain(|g| g.name != victim);
                        }
                    }
                } else if name == "fn" {
                    // A new function: no guard outlives a function body.
                    // (Items can nest; depth tracking handles the rest.)
                    pending = None;
                    pending_acquires = false;
                } else if ACQUIRERS.contains(&name)
                    && k > 0
                    && scope.tokens[code[k - 1]].kind == TokenKind::Punct('.')
                    && matches!(code.get(k + 1), Some(&i) if scope.tokens[i].kind == TokenKind::Punct('('))
                {
                    let in_test = scope.in_test_region(t.line);
                    if !in_test {
                        if let Some(live) = guards.last() {
                            out.push(ctx.diag(
                                RuleId::L005,
                                t.line,
                                t.col,
                                format!(
                                    "`.{name}()` while guard `{}` is live — drop it first \
                                     (lock-order hazard)",
                                    live.name
                                ),
                            ));
                        }
                        if pending.is_some() {
                            pending_acquires = true;
                        }
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
}
