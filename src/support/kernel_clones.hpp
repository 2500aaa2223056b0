// CDPF_KERNEL_CLONES: the attribute of a batch kernel, a loop that must
// vectorize and round exactly as its scalar form.
//
// A kernel is compiled three times, for AVX-512F, for AVX2 and for the
// baseline ISA, and the loader picks one per process (GNU ifunc). Its file
// is compiled with CDPF_BATCH_KERNEL_FLAGS (CMakeLists.txt), whose
// -ffp-contract=off keeps any clone from fusing a multiply-add, even where
// the target has FMA: every lane of every vector width rounds exactly as the
// scalar code does. ThreadSanitizer builds keep the baseline clone only: the
// loader runs the ifunc resolver before the TSan runtime is set up, and the
// instrumented resolver crashes there. The `batch_kernels_vectorized` lint
// gate checks every kernel file: each loop marked `cdpf-check: vectorized`
// must vectorize in all three clones, and no object may hold an FMA.
#pragma once

#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
// cdpf_lint lets only the files tools/check_vectorized.py checks use it.
// cdpf-lint: allow(no-explicit-simd)
#define CDPF_KERNEL_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef CDPF_KERNEL_CLONES
#define CDPF_KERNEL_CLONES
#endif
