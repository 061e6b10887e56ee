//! The instruction sets the hot kernels are compiled for, and the run-time
//! pick between them.
//!
//! The release build targets baseline x86-64, whose vectors are 128 bits
//! (SSE2). `per_isa!` compiles one kernel body a second and a third time,
//! inside `#[target_feature]` wrappers for AVX2 and AVX-512F, each with its
//! own tile width; the widest build the host can run is detected once, on
//! first use, and every later call goes straight to it. A host without AVX2
//! runs the portable build.
//!
//! No build changes a bit. Rust never contracts `a*b + c` into a fused
//! multiply-add and never reassociates a float sum, and every kernel
//! compiled here vectorises *across* output elements, each lane carrying
//! its element's one `p`-ascending chain. Element-wise passes over
//! transcendentals (the LSTM gates, softmax exponentials, Gumbel noise)
//! call [`crate::math`]'s branch-free, always-inlined functions, which
//! vectorise lane for lane into the same IEEE operations as the scalar
//! call. So the three builds and the [`Reference`](super::Reference)
//! oracle agree exactly: a per-build kernel never moves the kernel
//! bits-contract (version 2 moved every build and both backends together,
//! when those functions replaced libm).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// An instruction set the per-build kernels are compiled for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TileIsa {
    /// The baseline build: SSE2 on x86-64, the target's own vectors
    /// elsewhere.
    Portable,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512F.
    Avx512f,
}

impl TileIsa {
    /// The name `ci.sh` matches against the host's CPU flags.
    pub fn name(self) -> &'static str {
        match self {
            TileIsa::Portable => "portable",
            TileIsa::Avx2 => "avx2",
            TileIsa::Avx512f => "avx512f",
        }
    }

    /// Output columns of the gemm register tile in this build: one
    /// 256-bit register per tile row under AVX2, one 512-bit register
    /// under AVX-512F. The portable build keeps the 8 columns (two SSE
    /// registers) it always had.
    pub const fn width(self) -> usize {
        match self {
            TileIsa::Portable | TileIsa::Avx2 => 8,
            TileIsa::Avx512f => 16,
        }
    }

    /// Every build this host can run, narrowest first.
    pub fn supported() -> Vec<TileIsa> {
        let mut out = vec![TileIsa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                out.push(TileIsa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                out.push(TileIsa::Avx512f);
            }
        }
        out
    }

    /// The build kernels run: the widest in [`TileIsa::supported`],
    /// detected on the first call.
    pub fn active() -> TileIsa {
        match ACTIVE.load(Ordering::Relaxed) {
            1 => TileIsa::Portable,
            2 => TileIsa::Avx2,
            3 => TileIsa::Avx512f,
            _ => {
                let widest = *TileIsa::supported()
                    .last()
                    .expect("portable is always supported");
                set_active(widest);
                widest
            }
        }
    }
}

/// 0 = not yet detected.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn set_active(isa: TileIsa) {
    let v = match isa {
        TileIsa::Portable => 1,
        TileIsa::Avx2 => 2,
        TileIsa::Avx512f => 3,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// Serialises [`with_tile_isa`] across test threads.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

/// Restores the detected build on drop (also on panic).
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        ACTIVE.store(0, Ordering::Relaxed);
    }
}

/// Run `f` with every per-build kernel on the `isa` build, then return
/// to the detected one (also on panic). The parity suite's way to hold the
/// narrower builds to the oracle on a host that would never pick them; not
/// reentrant.
///
/// # Panics
/// Panics if the host cannot run `isa`.
#[doc(hidden)]
pub fn with_tile_isa<R>(isa: TileIsa, f: impl FnOnce() -> R) -> R {
    assert!(
        TileIsa::supported().contains(&isa),
        "this host cannot run the {} build",
        isa.name()
    );
    let _lock = SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore;
    set_active(isa);
    f()
}

/// Define a kernel whose body is compiled once per [`TileIsa`], and which
/// runs the [`TileIsa::active`] build. `|W|` binds the build's
/// [`TileIsa::width`] as a `const` inside the body:
///
/// ```ignore
/// per_isa! {
///     fn axpy(y: &mut [f32], a: f32, x: &[f32]) = |W| axpy_body::<W>(y, a, x);
/// }
/// ```
///
/// The body should be an `#[inline(always)]` function, so that it is
/// compiled inside each `#[target_feature]` wrapper rather than called from
/// it.
macro_rules! per_isa {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = |$w:ident| $body:expr;
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) {
            use $crate::backend::TileIsa;
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                fn avx2($($arg: $ty),*) {
                    const $w: usize = TileIsa::Avx2.width();
                    $body
                }
                #[target_feature(enable = "avx512f")]
                #[allow(clippy::too_many_arguments)]
                fn avx512f($($arg: $ty),*) {
                    const $w: usize = TileIsa::Avx512f.width();
                    $body
                }
                match TileIsa::active() {
                    // SAFETY: `active` only returns a build the host
                    // detected (`TileIsa::supported`).
                    TileIsa::Avx512f => return unsafe { avx512f($($arg),*) },
                    // SAFETY: as above.
                    TileIsa::Avx2 => return unsafe { avx2($($arg),*) },
                    TileIsa::Portable => {}
                }
            }
            const $w: usize = TileIsa::Portable.width();
            $body
        }
    };
}
pub(crate) use per_isa;

/// `W` lanes from `src` (at most `W` long), zero-padded past its end: a
/// `per_isa!` body's register-sized block, so that a short row or a row's
/// last partial block still runs at the build's full width. A whole block
/// is one fixed-size load; only a partial one copies by length.
#[inline(always)]
pub(crate) fn lanes<const W: usize>(src: &[f32]) -> [f32; W] {
    src.try_into().unwrap_or_else(|_| {
        let mut v = [0.0; W];
        v[..src.len()].copy_from_slice(src);
        v
    })
}

/// The first `dst.len()` (at most `W`) lanes of `v` into `dst`: the store
/// matching [`lanes`], one fixed-size store for a whole block.
#[inline(always)]
pub(crate) fn store_lanes<const W: usize>(dst: &mut [f32], v: &[f32; W]) {
    let n = dst.len();
    if n == W {
        let whole: &mut [f32; W] = dst.try_into().expect("W lanes");
        *whole = *v;
    } else {
        dst.copy_from_slice(&v[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_widest_supported_build_is_active_and_restored() {
        let supported = TileIsa::supported();
        assert_eq!(supported[0], TileIsa::Portable);
        with_tile_isa(TileIsa::Portable, || {
            assert_eq!(TileIsa::active(), TileIsa::Portable);
        });
        assert_eq!(TileIsa::active(), *supported.last().unwrap());
        let r = std::panic::catch_unwind(|| {
            with_tile_isa(TileIsa::Portable, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(TileIsa::active(), *supported.last().unwrap());
    }
}
