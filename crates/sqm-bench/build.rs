//! Re-document this crate when `ARCHITECTURE.md` changes. The file is
//! compiled into `sqm_bench::architecture` with `include_str!`, which
//! `cargo doc` does not track on its own, so an edit to the file alone
//! would otherwise leave a stale, passing docs build.

fn main() {
    println!("cargo:rerun-if-changed=../../ARCHITECTURE.md");
}
