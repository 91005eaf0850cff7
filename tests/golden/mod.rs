//! Byte-for-byte comparison with committed goldens, shared by the
//! integration tests that pin output bytes across versions.

use std::path::Path;

/// Compare `actual` with the committed golden at `path` byte for byte,
/// naming the first line that differs.
pub fn assert_matches_golden(path: &Path, actual: &str) {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let golden = std::fs::read_to_string(path).expect("golden fixture");
    if actual == golden {
        return;
    }
    // The first differing line, or the first line only one side has.
    let line = golden
        .lines()
        .zip(actual.lines())
        .position(|(want, got)| want != got)
        .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
    let want = golden.lines().nth(line).unwrap_or("<end of file>");
    let got = actual.lines().nth(line).unwrap_or("<end of file>");
    panic!(
        "{name}: {} bytes / {} lines rendered, golden has {} bytes / {} lines; \
         first difference at line {}:\n golden: {want}\n actual: {got}",
        actual.len(),
        actual.lines().count(),
        golden.len(),
        golden.lines().count(),
        line + 1,
    );
}
