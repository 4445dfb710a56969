//! The end-to-end benchmark binary: the system allocator, no spans.

fn main() -> std::process::ExitCode {
    distbench::main(false)
}
