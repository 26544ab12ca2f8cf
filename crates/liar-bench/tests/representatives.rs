//! Representative invariant over the evaluation corpus: after saturating
//! every kernel for BLAS and for PyTorch at the table settings, each
//! e-class's flattened representative has the stored length and free-index
//! set, and hash-conses back to that very class.
//!
//! This is the premise that lets `ArrayAnalysis::downshift` bind a closed
//! class's own representative to a shift variable instead of searching the
//! class for a member.

use liar_bench::harness::{pipeline_for, trips_extent_assert};
use liar_core::Target;
use liar_ir::debruijn::free_vars;
use liar_kernels::Kernel;

#[test]
fn representatives_are_members_of_their_class() {
    for kernel in Kernel::ALL {
        for target in [Target::Blas, Target::Torch] {
            if trips_extent_assert(kernel, target) {
                continue;
            }
            let expr = kernel.expr(kernel.search_size());
            let (_, egraph) = pipeline_for(kernel, target).optimize_with_egraph(&expr);
            for class in egraph.classes() {
                let ctx = format!("{kernel:?}/{target:?} class {}", class.id);
                let repr = &class.data.repr;
                let term = repr.expr();
                assert_eq!(term.len(), repr.len(), "{ctx}: length");
                assert_eq!(free_vars(term), class.data.repr_free, "{ctx}: free indices");
                assert_eq!(egraph.lookup_expr(term), Some(class.id), "{ctx}: {term}");
            }
        }
    }
}
