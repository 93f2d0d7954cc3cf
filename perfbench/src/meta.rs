//! Machine and build metadata printed with every result.

/// CPU brand string from CPUID, or `"unknown"` off x86_64.
#[allow(unused_unsafe)]
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: CPUID is available on every x86_64 CPU.
        let max = unsafe { __cpuid(0x8000_0000) }.eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: leaf is within the reported extended range.
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".to_string()
}

/// SIMD features the kernels care about.
fn cpu_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            flags.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
    }
    flags
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metadata object as one JSON line.
pub fn json(workload: &str, seed: u64, trace: bool, pool_workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flags: Vec<String> = cpu_flags().iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \
         \"cpu_model\": {}, \"cpu_flags\": [{}], \"kernel_backend\": {}, \"vector_uses_fma\": {}, \
         \"pool_workers\": {pool_workers}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}}}}}",
        json_str(workload),
        json_str(&cpu_model()),
        flags.join(", "),
        json_str(corrfade::linalg::kernel::backend().describe()),
        corrfade::linalg::kernel::vector_uses_fma(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(env!("PERFBENCH_SOURCE_DIGEST")),
    )
}
