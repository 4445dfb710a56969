//! The traced benchmark binary: counts allocations and records spans.

#[global_allocator]
static ALLOC: distbench::alloc::CountingAlloc = distbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    distbench::main(true)
}
