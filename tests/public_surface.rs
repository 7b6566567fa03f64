//! Pins the size of every workspace crate's public surface: the number
//! of top-level `pub` items (`pub fn|struct|enum|trait|type|const|
//! static|mod|use` at the start of a line, not `pub(crate)`) in the
//! `.rs` files under `crates/<name>/src`. A count that moves means an
//! item was added to or removed from some crate's API; the test fails
//! so that the change is made on purpose and written down.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Top-level `pub` items per crate.
const EXPECTED: [(&str, usize); 9] = [
    ("vbatch-bench", 29),
    ("vbatch-core", 99),
    ("vbatch-exec", 52),
    ("vbatch-precond", 19),
    ("vbatch-rt", 104),
    ("vbatch-serve", 23),
    ("vbatch-simt", 99),
    ("vbatch-solver", 31),
    ("vbatch-sparse", 79),
];

const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

fn pub_items(src: &str) -> usize {
    src.lines()
        .filter_map(|line| line.strip_prefix("pub "))
        .filter(|rest| {
            rest.split_whitespace()
                .next()
                .is_some_and(|kw| KINDS.contains(&kw))
        })
        .count()
}

fn count_dir(dir: &Path) -> usize {
    let mut total = 0;
    for entry in fs::read_dir(dir).expect("read source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            total += count_dir(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += pub_items(&fs::read_to_string(&path).expect("read source file"));
        }
    }
    total
}

#[test]
fn public_surface_matches_the_table() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = BTreeMap::new();
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let path = entry.expect("directory entry").path();
        let src = path.join("src");
        if src.is_dir() {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            found.insert(name, count_dir(&src));
        }
    }
    let expected: BTreeMap<String, usize> =
        EXPECTED.iter().map(|&(c, n)| (c.to_string(), n)).collect();
    if found != expected {
        let rows: Vec<String> = found
            .iter()
            .map(|(c, n)| format!("    ({c:?}, {n}),"))
            .collect();
        panic!(
            "the public surface changed: top-level `pub` items per crate are now\n{}\n\
             If the change is intended, update EXPECTED in tests/public_surface.rs \
             in the same pull request and say so in CHANGES.md.",
            rows.join("\n")
        );
    }
}

#[test]
fn the_counter_sees_only_top_level_pub_items() {
    let src = "pub fn a() {}\npub(crate) fn b() {}\n    pub fn c() {}\npub use x::{y, z};\n\
               // pub fn e() {}\npub struct S;\n";
    assert_eq!(pub_items(src), 3);
}
