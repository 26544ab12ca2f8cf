//! `Display`/`FromStr` round-trip guarantees for the whole IR — the wire
//! format of the serve protocol depends on them.
//!
//! For every [`ArrayLang`] constructor (randomized over a seeded
//! generator, plus targeted regressions), a term built programmatically
//! must satisfy:
//!
//! * **display fixpoint** — `parse(display(e))` displays identically;
//! * **structural identity** — the re-parsed tree is node-for-node the
//!   same tree (checked independently of, and in addition to,
//!   [`ContentAddressed::content_hash`] agreement);
//! * parse never panics on adversarial atoms (`nan` is an error, not a
//!   `Num::new` panic).
//!
//! The generator is the workspace's seeded [`SplitMix64`] (the one the
//! kernel inputs draw from) so failures reproduce bit-for-bit.

use liar_egraph::{Language, SplitMix64};
use liar_ir::{ArrayLang, ArrayPattern, ContentAddressed, Expr, LibFn, Num};

/// Floats whose textual formatting is worth stressing: negatives, huge
/// and tiny magnitudes (Rust's `{}` never uses scientific notation, so
/// these print hundreds of digits), subnormals, repeating fractions,
/// infinities, and the normalized `-0.0`.
const FLOAT_POOL: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    -1.5,
    0.1,
    1.0 / 3.0,
    -2.5e-7,
    1e300,
    -1e300,
    1e-300,
    5e-324, // smallest positive subnormal
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const SYM_POOL: [&str; 8] = ["xs", "A", "alpha", "x_1", "a.b", "v0", "Z9", "_tmp"];

fn gen_leaf(rng: &mut SplitMix64) -> Expr {
    let mut e = Expr::default();
    match rng.below(4) {
        0 => e.add(ArrayLang::Dim(rng.below(100))),
        1 => {
            let v = if rng.below(4) == 0 {
                // A random finite bit pattern (NaN re-rolled to 1.0).
                let bits = rng.next_u64();
                let v = f64::from_bits(bits);
                if v.is_nan() {
                    1.0
                } else {
                    v
                }
            } else {
                FLOAT_POOL[rng.below(FLOAT_POOL.len())]
            };
            e.add(ArrayLang::Const(Num::new(v)))
        }
        2 => e.add(ArrayLang::Sym(SYM_POOL[rng.below(SYM_POOL.len())].into())),
        _ => e.add(ArrayLang::Var(rng.below(5) as u32)),
    };
    e
}

/// Generate a term; `depth` bounds nesting. Every constructor can appear.
fn gen_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 {
        return gen_leaf(rng);
    }
    let child = |rng: &mut SplitMix64| gen_expr(rng, depth - 1);
    let mut out = Expr::default();
    let put = |out: &mut Expr, e: Expr| out.append_subtree(&e, e.root());
    match rng.below(16) {
        0 => return gen_leaf(rng),
        1 => {
            let c = put(&mut out, child(rng));
            out.add(ArrayLang::Lam(c));
        }
        2 => {
            let c = put(&mut out, child(rng));
            out.add(ArrayLang::Fst(c));
        }
        3 => {
            let c = put(&mut out, child(rng));
            out.add(ArrayLang::Snd(c));
        }
        n @ 4..=11 => {
            let a = put(&mut out, child(rng));
            let b = put(&mut out, child(rng));
            let node = match n {
                4 => ArrayLang::App([a, b]),
                5 => ArrayLang::Build([a, b]),
                6 => ArrayLang::Get([a, b]),
                7 => ArrayLang::Tuple([a, b]),
                8 => ArrayLang::Add([a, b]),
                9 => ArrayLang::Sub([a, b]),
                10 => ArrayLang::Mul([a, b]),
                _ => if rng.below(2) == 0 {
                    ArrayLang::Div([a, b])
                } else {
                    ArrayLang::Gt([a, b])
                },
            };
            out.add(node);
        }
        12 => {
            let a = put(&mut out, child(rng));
            let b = put(&mut out, child(rng));
            let c = put(&mut out, child(rng));
            out.add(ArrayLang::IFold([a, b, c]));
        }
        _ => {
            let f = LibFn::ALL[rng.below(LibFn::ALL.len())];
            let mut ids = Vec::new();
            for _ in 0..f.n_dims() {
                let mut d = Expr::default();
                d.add(ArrayLang::Dim(rng.below(64)));
                ids.push(put(&mut out, d));
            }
            for _ in 0..f.n_args() {
                ids.push(put(&mut out, child(rng)));
            }
            out.add(ArrayLang::Call(f, ids));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Structural tree equality, independent of node-table layout.

fn tree_eq(a: &Expr, ia: liar_egraph::Id, b: &Expr, ib: liar_egraph::Id) -> bool {
    let (na, nb) = (a.node(ia), b.node(ib));
    na.matches(nb)
        && na
            .children()
            .iter()
            .zip(nb.children())
            .all(|(ca, cb)| tree_eq(a, *ca, b, *cb))
}

fn assert_roundtrip(e: &Expr) {
    let text = e.to_string();
    let parsed: Expr = text
        .parse()
        .unwrap_or_else(|err| panic!("{text}: {err}"));
    assert_eq!(parsed.to_string(), text, "display is not a fixpoint");
    assert!(
        tree_eq(e, e.root(), &parsed, parsed.root()),
        "re-parsed tree differs: {text}"
    );
    assert_eq!(
        e.content_hash(),
        parsed.content_hash(),
        "content hash changed across the wire: {text}"
    );
}

// ---------------------------------------------------------------------------
// The tests.

#[test]
fn randomized_roundtrip_all_constructors() {
    let mut rng = SplitMix64::new(0x11a2_2024);
    // Make sure the sweep actually exercises every constructor.
    let mut seen_call = [false; LibFn::ALL.len()];
    for i in 0..500 {
        let e = gen_expr(&mut rng, 1 + i % 5);
        for node in e.nodes() {
            if let Some(f) = node.as_call() {
                seen_call[LibFn::ALL.iter().position(|g| *g == f).unwrap()] = true;
            }
        }
        assert_roundtrip(&e);
    }
    assert!(
        seen_call.iter().all(|s| *s),
        "generator missed some LibFns: {seen_call:?}"
    );
}

#[test]
fn every_libfn_roundtrips_at_exact_arity() {
    for f in LibFn::ALL {
        let mut e = Expr::default();
        let mut ids = Vec::new();
        for d in 0..f.n_dims() {
            ids.push(e.add(ArrayLang::Dim(8 + d)));
        }
        for a in 0..f.n_args() {
            ids.push(e.add(ArrayLang::Sym(format!("a{a}"))));
        }
        e.add(ArrayLang::Call(f, ids));
        assert_roundtrip(&e);
        // Wrong arity must fail to parse.
        let text = e.to_string();
        let truncated = text.rsplit_once(' ').unwrap().0.to_string() + ")";
        assert!(truncated.parse::<Expr>().is_err(), "{truncated}");
    }
}

#[test]
fn negative_and_extreme_constants_roundtrip() {
    for v in FLOAT_POOL {
        let mut e = Expr::default();
        e.add(ArrayLang::num(v));
        assert_roundtrip(&e);
    }
    for text in ["-1.5", "(- 0 -1.5)", "(mul #4 -2.5 xs)", "(+ -1e-300 1e300)"] {
        let e: Expr = text.parse().unwrap();
        assert_roundtrip(&e);
    }
}

#[test]
fn nan_is_a_parse_error_not_a_panic() {
    for text in ["nan", "NaN", "-nan", "(+ nan 1)", "(full #4 NaN)"] {
        assert!(text.parse::<Expr>().is_err(), "{text:?} must not parse");
    }
    // Infinities, by contrast, are representable and round-trip.
    let e: Expr = "inf".parse().unwrap();
    assert_eq!(e.to_string(), "inf");
    let e: Expr = "(- 0 -inf)".parse().unwrap();
    assert_roundtrip(&e);
}

#[test]
fn sym_validity_matches_the_grammar() {
    for good in SYM_POOL {
        assert!(ArrayLang::is_valid_sym(good), "{good:?}");
        let mut e = Expr::default();
        e.add(ArrayLang::Sym(good.to_string()));
        assert_roundtrip(&e);
    }
    for bad in [
        "",      // empty
        "1.5",   // parses as a constant
        "1e5",   // parses as a constant
        "inf",   // parses as a constant
        "nan",   // would be a NaN constant
        "dot",   // library function
        "gemmFT", // library function
        "lam",   // core keyword
        "ifold", // core keyword
        "a b",   // whitespace
        "a-b",   // '-' is the subtraction operator
        "#8",    // extent syntax
        "%0",    // parameter syntax
        "?x",    // pattern-variable syntax
    ] {
        assert!(!ArrayLang::is_valid_sym(bad), "{bad:?} should be invalid");
    }
}

#[test]
fn pattern_sh0_normalizes_and_roundtrips() {
    // `(sh0 ?x)` is the identity shift: it must normalize to a plain
    // variable at parse time, and the *normalized* form is the display
    // fixpoint.
    let p: ArrayPattern = "(get (sh0 ?a) ?i)".parse().unwrap();
    assert_eq!(p.to_string(), "(get ?a ?i)");
    let again: ArrayPattern = p.to_string().parse().unwrap();
    assert_eq!(again.to_string(), p.to_string());

    // Non-zero shifts survive verbatim.
    let p: ArrayPattern = "(build ?n (lam (get (sh1 ?xs) %0)))".parse().unwrap();
    assert_eq!(p.to_string(), "(build ?n (lam (get (sh1 ?xs) %0)))");
}
