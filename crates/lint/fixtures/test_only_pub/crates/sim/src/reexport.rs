/// Re-exported by `lib.rs`, which does not make it used.
pub fn only_reexported() -> u32 {
    6
}
