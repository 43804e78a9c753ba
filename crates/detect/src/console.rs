//! Kernel console checker.
//!
//! The paper implements `is_bug` partly "by capturing guest-kernel console
//! output" (§4.4.1). This module scans console lines for the error classes
//! Table 2 reports: oopses, filesystem errors, block-layer IO errors, and
//! WARN splats.

use crate::Finding;

/// Substrings that mark a console line as an error finding (panics are
/// handled via the execution outcome, but their lines also match here when
/// scanning raw logs).
const ERROR_PATTERNS: &[&str] = &[
    "BUG:",
    "EXT4-fs error",
    "Blk_update_request: IO error",
    "WARNING:",
    "Oops:",
];

/// Returns true if `line` matches any error pattern.
pub fn is_error_line(line: &str) -> bool {
    ERROR_PATTERNS.iter().any(|p| line.contains(p))
}

/// Scans console lines, producing one finding per error line. `BUG:` lines
/// are classified as panics; the rest as console errors.
pub fn scan_console(lines: &[String]) -> Vec<Finding> {
    lines
        .iter()
        .filter(|l| is_error_line(l))
        .map(|l| {
            if l.contains("BUG:") {
                Finding::KernelPanic { msg: l.clone() }
            } else {
                Finding::ConsoleError { line: l.clone() }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_lines_are_flagged() {
        assert!(is_error_line("EXT4-fs error (device sda): bad header"));
        assert!(is_error_line(
            "Blk_update_request: IO error, dev sda, sector 3"
        ));
        assert!(is_error_line("BUG: kernel NULL pointer dereference"));
        assert!(is_error_line("WARNING: thread 0 exited holding lock 0x40"));
        assert!(!is_error_line("EXT4-fs (sda): mounted filesystem"));
    }

    #[test]
    fn scan_classifies_bug_lines_as_panics() {
        let lines = vec![
            "booted fine".to_owned(),
            "BUG: unable to handle page fault for address: 0x1100".to_owned(),
            "EXT4-fs error: checksum invalid".to_owned(),
        ];
        let findings = scan_console(&lines);
        assert_eq!(findings.len(), 2);
        assert!(matches!(findings[0], Finding::KernelPanic { .. }));
        assert!(matches!(findings[1], Finding::ConsoleError { .. }));
    }
}
