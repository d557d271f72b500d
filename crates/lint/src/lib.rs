//! `normlint` — workspace static analysis enforcing the invariants the
//! IterL2Norm reproduction is built on: bit-identity of the value path,
//! unsafe containment, and lock-poison recovery. Dependency-free by
//! design (a linter the build can't bootstrap enforces nothing): a
//! hand-rolled lexer ([`lexer`]), a per-file scope pass ([`scope`]), and
//! eight small rules ([`rules`], catalogued in [`diag::RuleId`]).
//!
//! Library surface: [`check_file_source`] runs every rule over one file
//! (what the fixture tests use); [`run_workspace`] walks the real tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

use diag::{Diagnostic, RuleId, ALL_RULES};
use rules::RuleCtx;
use scope::FileScope;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Which rules fire, and which paths are on the value path.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rules that produce diagnostics. Defaults to all of them.
    pub denied: BTreeSet<RuleId>,
    /// Workspace-relative path prefixes / files whose modules are on the
    /// value path (L003 scope). A file can also self-declare with
    /// `// normlint: value-path`.
    pub value_path: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            denied: ALL_RULES.iter().copied().collect(),
            value_path: vec![
                "crates/softfloat/src/".to_string(),
                "crates/core/src/engine.rs".to_string(),
                "crates/core/src/backend.rs".to_string(),
                "crates/core/src/simd.rs".to_string(),
                "crates/core/src/whiten.rs".to_string(),
                "crates/core/src/iteration.rs".to_string(),
                "crates/core/src/layernorm.rs".to_string(),
                "crates/core/src/hworder.rs".to_string(),
            ],
        }
    }
}

impl Config {
    /// Deny every rule (the default, restated for the CLI's `--deny all`).
    pub fn deny_all(&mut self) {
        self.denied = ALL_RULES.iter().copied().collect();
    }

    /// Stop a rule from firing.
    pub fn allow(&mut self, rule: RuleId) {
        self.denied.remove(&rule);
    }

    /// Make a rule fire.
    pub fn deny(&mut self, rule: RuleId) {
        self.denied.insert(rule);
    }

    fn is_value_path(&self, rel_path: &str) -> bool {
        self.value_path
            .iter()
            .any(|p| rel_path == p || (p.ends_with('/') && rel_path.starts_with(p.as_str())))
    }
}

/// Run every rule over one file's source. `rel_path` is the
/// workspace-relative path with `/` separators; it drives the L003
/// value-path decision and the `tests/`/`examples/`/`benches/`
/// exemptions, and is echoed in diagnostics.
pub fn check_file_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let scope = FileScope::analyze(rel_path, src);
    let in_test_dir = rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "examples" || seg == "benches" || seg == "fixtures");
    let ctx = RuleCtx {
        path: rel_path,
        src,
        scope: &scope,
        in_test_dir,
        value_path: cfg.is_value_path(rel_path) || scope.value_path_module,
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    diags.extend(scope.directive_errors.iter().cloned());
    rules::l001::run(&ctx, &mut diags);
    rules::l002::run(&ctx, &mut diags);
    rules::l003::run(&ctx, &mut diags);
    rules::l004::run(&ctx, &mut diags);
    rules::l005::run(&ctx, &mut diags);
    rules::l006::run(&ctx, &mut diags);
    rules::l007::run(&ctx, &mut diags);

    // Waivers apply to every rule except the meta rule (a broken escape
    // hatch must not be able to waive itself).
    diags.retain(|d| d.rule == RuleId::L000 || !scope.is_waived(d.rule, d.line));
    diags.retain(|d| cfg.denied.contains(&d.rule));
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Walk the workspace at `root`, lint every `.rs` file, and return the
/// diagnostics plus the number of files scanned. Skips `target/`,
/// `.git/`, and the lint crate's own `fixtures/` (they violate rules on
/// purpose).
pub fn run_workspace(root: &Path, cfg: &Config) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        diags.extend(check_file_source(&rel_str, &src, cfg));
    }
    Ok((diags, files.len()))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
