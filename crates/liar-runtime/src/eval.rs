//! An environment-based interpreter for the minimalist IR.
//!
//! Library calls dispatch to the optimized routines in [`crate::library`]
//! and are individually timed so callers can compute *coverage* — the
//! fraction of run time spent inside library functions (paper fig. 5).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use liar_egraph::{Id, Language};
use liar_ir::{ArrayLang, Expr, LibFn};

use crate::library;
use crate::value::{Closure, Env, Value};
use crate::Tensor;

/// Errors produced by evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A named input was not supplied.
    MissingInput(String),
    /// A De Bruijn index had no binding.
    UnboundVariable(u32),
    /// A non-function was applied.
    NotAFunction,
    /// A non-array was indexed or passed where an array was needed.
    NotAnArray,
    /// A non-number was used as a scalar or index.
    NotANumber,
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The requested index.
        index: usize,
        /// The array length.
        len: usize,
    },
    /// A tuple projection on a non-tuple.
    NotATuple,
    /// A malformed library call (wrong shapes, non-tensor argument, …).
    BadCall(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::MissingInput(name) => write!(f, "missing input {name}"),
            EvalError::UnboundVariable(i) => write!(f, "unbound parameter %{i}"),
            EvalError::NotAFunction => write!(f, "applied a non-function"),
            EvalError::NotAnArray => write!(f, "indexed a non-array"),
            EvalError::NotANumber => write!(f, "expected a number"),
            EvalError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            EvalError::NotATuple => write!(f, "projected a non-tuple"),
            EvalError::BadCall(msg) => write!(f, "bad library call: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Per-evaluation statistics: time spent in each library function.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Cumulative time per library function (by family name).
    pub lib_time: BTreeMap<&'static str, Duration>,
    /// Number of library calls executed.
    pub lib_calls: usize,
}

struct Interp<'a> {
    expr: &'a Expr,
    inputs: &'a HashMap<String, Value>,
    stats: RefCell<EvalStats>,
    /// Merkle hash per node (structural, so textually duplicated subtrees
    /// share an entry) — `None` for nodes with free variables.
    closed_hash: Vec<Option<u128>>,
    /// Cache of already-evaluated closed subtrees. Mirrors what the
    /// paper's C backend achieves by materializing temporaries once: a
    /// shared subexpression (e.g. gemver's A2 matrix) is computed once,
    /// not once per enclosing loop iteration.
    memo: RefCell<HashMap<u128, Value>>,
}

/// Compute per-node (closedness, merkle hash) for memoization.
fn closed_hashes(expr: &Expr) -> Vec<Option<u128>> {
    use std::hash::{Hash, Hasher};
    fn mix(h: u128, x: u128) -> u128 {
        // SplitMix-style mixing, widened.
        let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
        z ^= z >> 67;
        z = z.wrapping_mul(0xff51_afd7_ed55_8ccd_c4ce_b9fe_1a85_ec53);
        z ^ (z >> 59)
    }
    let mut free: Vec<liar_ir::VarSet> = Vec::with_capacity(expr.len());
    let mut hashes: Vec<u128> = Vec::with_capacity(expr.len());
    let mut out: Vec<Option<u128>> = Vec::with_capacity(expr.len());
    for node in expr.nodes() {
        let f = liar_ir::debruijn::node_free_vars(node, &mut |c| free[c.index()]);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::mem::discriminant(node).hash(&mut hasher);
        match node {
            ArrayLang::Dim(n) => n.hash(&mut hasher),
            ArrayLang::Const(c) => c.hash(&mut hasher),
            ArrayLang::Sym(s) => s.hash(&mut hasher),
            ArrayLang::Var(i) => i.hash(&mut hasher),
            ArrayLang::Call(f, _) => f.hash(&mut hasher),
            _ => {}
        }
        let mut h = (hasher.finish() as u128) << 64 | hasher.finish() as u128;
        for (k, c) in node.children().iter().enumerate() {
            h = mix(h, hashes[c.index()].wrapping_add(k as u128 + 1));
        }
        hashes.push(h);
        out.push(if f.is_empty() { Some(h) } else { None });
        free.push(f);
    }
    out
}

/// Evaluate an expression given named inputs.
///
/// # Errors
///
/// Returns an [`EvalError`] on missing inputs, type confusion, or malformed
/// library calls.
pub fn eval(expr: &Expr, inputs: &HashMap<String, Value>) -> Result<Value, EvalError> {
    eval_with_stats(expr, inputs).map(|(v, _)| v)
}

/// Evaluate and report per-library-call timing.
///
/// # Errors
///
/// See [`eval`].
pub fn eval_with_stats(
    expr: &Expr,
    inputs: &HashMap<String, Value>,
) -> Result<(Value, EvalStats), EvalError> {
    let interp = Interp {
        expr,
        inputs,
        stats: RefCell::new(EvalStats::default()),
        closed_hash: closed_hashes(expr),
        memo: RefCell::new(HashMap::new()),
    };
    let value = interp.eval(expr.root(), &Env::new())?;
    Ok((value, interp.stats.into_inner()))
}

impl Interp<'_> {
    fn eval(&self, id: Id, env: &Env) -> Result<Value, EvalError> {
        // Closed non-leaf subtrees are evaluated once and shared.
        let key = match self.expr.node(id) {
            n if n.is_leaf() => None,
            ArrayLang::Lam(_) => None, // Closures are cheap; env capture differs.
            _ => self.closed_hash[id.index()],
        };
        if let Some(k) = key {
            if let Some(v) = self.memo.borrow().get(&k) {
                return Ok(v.clone());
            }
        }
        let value = self.eval_uncached(id, env)?;
        if let Some(k) = key {
            self.memo.borrow_mut().insert(k, value.clone());
        }
        Ok(value)
    }

    fn eval_uncached(&self, id: Id, env: &Env) -> Result<Value, EvalError> {
        match self.expr.node(id) {
            ArrayLang::Dim(n) => Ok(Value::Num(*n as f64)),
            ArrayLang::Const(c) => Ok(Value::Num(c.get())),
            ArrayLang::Sym(name) => self
                .inputs
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::MissingInput(name.clone())),
            ArrayLang::Var(i) => env
                .get(*i)
                .cloned()
                .ok_or(EvalError::UnboundVariable(*i)),
            ArrayLang::Lam(body) => Ok(Value::Closure(Rc::new(Closure {
                body: *body,
                env: env.clone(),
            }))),
            ArrayLang::App([f, x]) => {
                let f = self.eval(*f, env)?;
                let x = self.eval(*x, env)?;
                self.apply(&f, x)
            }
            ArrayLang::Build([n, f]) => {
                let n = self.index(*n, env)?;
                let f = self.eval(*f, env)?;
                let mut items = Vec::with_capacity(n);
                for i in 0..n {
                    items.push(self.apply(&f, Value::Num(i as f64))?);
                }
                Ok(Value::Arr(Rc::new(items)))
            }
            ArrayLang::Get([a, i]) => {
                let arr = self.eval(*a, env)?;
                let idx = self.index(*i, env)?;
                match &arr {
                    Value::Arr(items) => {
                        items
                            .get(idx)
                            .cloned()
                            .ok_or(EvalError::IndexOutOfBounds {
                                index: idx,
                                len: items.len(),
                            })
                    }
                    Value::Tensor(view) => {
                        view.index(idx).ok_or(EvalError::IndexOutOfBounds {
                            index: idx,
                            len: view.leading_len(),
                        })
                    }
                    _ => Err(EvalError::NotAnArray),
                }
            }
            ArrayLang::IFold([n, init, f]) => {
                let n = self.index(*n, env)?;
                let f = self.eval(*f, env)?;
                let mut acc = self.eval(*init, env)?;
                for i in 0..n {
                    let step = self.apply(&f, Value::Num(i as f64))?;
                    acc = self.apply(&step, acc)?;
                }
                Ok(acc)
            }
            ArrayLang::Tuple([a, b]) => {
                let a = self.eval(*a, env)?;
                let b = self.eval(*b, env)?;
                Ok(Value::Tuple(Rc::new((a, b))))
            }
            ArrayLang::Fst(t) => match self.eval(*t, env)? {
                Value::Tuple(p) => Ok(p.0.clone()),
                _ => Err(EvalError::NotATuple),
            },
            ArrayLang::Snd(t) => match self.eval(*t, env)? {
                Value::Tuple(p) => Ok(p.1.clone()),
                _ => Err(EvalError::NotATuple),
            },
            ArrayLang::Add(ab) => self.binop(ab, env, |a, b| a + b),
            ArrayLang::Sub(ab) => self.binop(ab, env, |a, b| a - b),
            ArrayLang::Mul(ab) => self.binop(ab, env, |a, b| a * b),
            ArrayLang::Div(ab) => self.binop(ab, env, |a, b| a / b),
            ArrayLang::Gt(ab) => self.binop(ab, env, |a, b| f64::from(a > b)),
            ArrayLang::Call(f, args) => self.call(*f, args, env),
        }
    }

    fn apply(&self, f: &Value, x: Value) -> Result<Value, EvalError> {
        match f {
            Value::Closure(c) => self.eval(c.body, &c.env.push(x)),
            _ => Err(EvalError::NotAFunction),
        }
    }

    fn num(&self, id: Id, env: &Env) -> Result<f64, EvalError> {
        self.eval(id, env)?.as_num().ok_or(EvalError::NotANumber)
    }

    fn index(&self, id: Id, env: &Env) -> Result<usize, EvalError> {
        self.eval(id, env)?.as_index().ok_or(EvalError::NotANumber)
    }

    fn binop(
        &self,
        [a, b]: &[Id; 2],
        env: &Env,
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value, EvalError> {
        Ok(Value::Num(op(self.num(*a, env)?, self.num(*b, env)?)))
    }

    fn tensor(&self, id: Id, env: &Env) -> Result<Rc<Tensor>, EvalError> {
        self.eval(id, env)?
            .to_tensor_rc()
            .ok_or_else(|| EvalError::BadCall("argument is not a tensor".into()))
    }

    fn call(&self, f: LibFn, args: &[Id], env: &Env) -> Result<Value, EvalError> {
        // Evaluate value arguments (skipping the leading dims, which are
        // implied by the tensors themselves).
        let vals = &args[f.n_dims()..];
        let dim0 = self.index(args[0], env)?;
        let start = Instant::now();
        let result: Value = match f {
            LibFn::Dot => {
                let (a, b) = (self.tensor(vals[0], env)?, self.tensor(vals[1], env)?);
                let start = Instant::now();
                let r = library::dot(a.data(), b.data());
                self.record(f, start);
                Value::Num(r)
            }
            LibFn::Axpy => {
                let alpha = self.num(vals[0], env)?;
                let (a, b) = (self.tensor(vals[1], env)?, self.tensor(vals[2], env)?);
                let start = Instant::now();
                let r = library::axpy(alpha, a.data(), b.data());
                self.record(f, start);
                Value::from(Tensor::vector(r))
            }
            LibFn::Gemv { trans } => {
                let alpha = self.num(vals[0], env)?;
                let a = self.tensor(vals[1], env)?;
                let b = self.tensor(vals[2], env)?;
                let beta = self.num(vals[3], env)?;
                let c = self.tensor(vals[4], env)?;
                if a.shape().len() != 2 {
                    return Err(EvalError::BadCall("gemv: A must be rank 2".into()));
                }
                let start = Instant::now();
                let r = library::gemv(alpha, &a, b.data(), beta, c.data(), trans);
                self.record(f, start);
                Value::from(Tensor::vector(r))
            }
            LibFn::Gemm { trans_a, trans_b } => {
                let alpha = self.num(vals[0], env)?;
                let a = self.tensor(vals[1], env)?;
                let b = self.tensor(vals[2], env)?;
                let beta = self.num(vals[3], env)?;
                let c = self.tensor(vals[4], env)?;
                if a.shape().len() != 2 || b.shape().len() != 2 {
                    return Err(EvalError::BadCall("gemm: rank-2 inputs required".into()));
                }
                let start = Instant::now();
                let r = library::gemm(alpha, &a, &b, beta, &c, trans_a, trans_b);
                self.record(f, start);
                Value::from(r)
            }
            LibFn::Memset => {
                let start = Instant::now();
                let r = library::memset_zero(dim0);
                self.record(f, start);
                Value::from(Tensor::vector(r))
            }
            LibFn::Transpose => {
                let a = self.tensor(vals[0], env)?;
                if a.shape().len() != 2 {
                    return Err(EvalError::BadCall("transpose: rank-2 input".into()));
                }
                let start = Instant::now();
                let r = library::transpose(&a);
                self.record(f, start);
                Value::from(r)
            }
            LibFn::TAdd => {
                let (a, b) = (self.tensor(vals[0], env)?, self.tensor(vals[1], env)?);
                if a.shape() != b.shape() {
                    return Err(EvalError::BadCall("add: shape mismatch".into()));
                }
                let start = Instant::now();
                let r = library::tadd(&a, &b);
                self.record(f, start);
                Value::from(r)
            }
            LibFn::TMul => {
                let alpha = self.num(vals[0], env)?;
                let a = self.tensor(vals[1], env)?;
                let start = Instant::now();
                let r = library::tmul(alpha, &a);
                self.record(f, start);
                Value::from(r)
            }
            LibFn::TMv => {
                let (a, b) = (self.tensor(vals[0], env)?, self.tensor(vals[1], env)?);
                if a.shape().len() != 2 {
                    return Err(EvalError::BadCall("mv: A must be rank 2".into()));
                }
                let start = Instant::now();
                let r = library::mv(&a, b.data());
                self.record(f, start);
                Value::from(Tensor::vector(r))
            }
            LibFn::TMm => {
                let (a, b) = (self.tensor(vals[0], env)?, self.tensor(vals[1], env)?);
                if a.shape().len() != 2 || b.shape().len() != 2 {
                    return Err(EvalError::BadCall("mm: rank-2 inputs required".into()));
                }
                let start = Instant::now();
                let r = library::mm(&a, &b);
                self.record(f, start);
                Value::from(r)
            }
            LibFn::TSum => {
                let a = self.tensor(vals[0], env)?;
                let start = Instant::now();
                let r = library::tsum(&a);
                self.record(f, start);
                Value::Num(r)
            }
            LibFn::TFull => {
                let c = self.num(vals[0], env)?;
                let start = Instant::now();
                let r = library::tfull(dim0, c);
                self.record(f, start);
                Value::from(Tensor::vector(r))
            }
        };
        let _ = start;
        Ok(result)
    }

    fn record(&self, f: LibFn, start: Instant) {
        let mut stats = self.stats.borrow_mut();
        *stats
            .lib_time
            .entry(f.family_name())
            .or_insert(Duration::ZERO) += start.elapsed();
        stats.lib_calls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liar_ir::dsl;

    fn inputs(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn vec_val(data: &[f64]) -> Value {
        Value::from(Tensor::vector(data.to_vec()))
    }

    fn ev(s: &str, ins: &HashMap<String, Value>) -> Result<Value, EvalError> {
        eval(&s.parse().unwrap(), ins)
    }

    #[test]
    fn scalar_arithmetic() {
        let ins = inputs(&[]);
        assert_eq!(ev("(+ 1 (* 2 3))", &ins).unwrap().as_num(), Some(7.0));
        assert_eq!(ev("(- 1 (/ 4 2))", &ins).unwrap().as_num(), Some(-1.0));
        assert_eq!(ev("(> 2 1)", &ins).unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn build_and_get() {
        let ins = inputs(&[]);
        let v = ev("(build #4 (lam (* %0 %0)))", &ins).unwrap();
        let t = v.to_tensor().unwrap();
        assert_eq!(t.data(), &[0.0, 1.0, 4.0, 9.0]);
        assert_eq!(
            ev("(get (build #4 (lam (* %0 %0))) 3)", &ins).unwrap().as_num(),
            Some(9.0)
        );
    }

    #[test]
    fn ifold_follows_recursive_definition() {
        // ifold 3 10 (λ i (λ acc. acc + i)) = 10 + 0 + 1 + 2.
        let ins = inputs(&[]);
        let v = ev("(ifold #3 10 (lam (lam (+ %0 %1))))", &ins).unwrap();
        assert_eq!(v.as_num(), Some(13.0));
    }

    #[test]
    fn vsum_matches_sum(){
        let xs = vec_val(&[1.0, 2.0, 3.0, 4.5]);
        let ins = inputs(&[("xs", xs)]);
        let expr = dsl::vsum(4, dsl::sym("xs"));
        assert_eq!(eval(&expr, &ins).unwrap().as_num(), Some(10.5));
    }

    #[test]
    fn beta_reduction_semantics() {
        let ins = inputs(&[]);
        assert_eq!(
            ev("(app (lam (+ %0 1)) 41)", &ins).unwrap().as_num(),
            Some(42.0)
        );
    }

    #[test]
    fn tuples() {
        let ins = inputs(&[]);
        assert_eq!(ev("(fst (tuple 1 2))", &ins).unwrap().as_num(), Some(1.0));
        assert_eq!(ev("(snd (tuple 1 2))", &ins).unwrap().as_num(), Some(2.0));
        assert_eq!(ev("(fst 3)", &ins).unwrap_err(), EvalError::NotATuple);
    }

    #[test]
    fn errors() {
        let ins = inputs(&[]);
        assert_eq!(
            ev("missing", &ins).unwrap_err(),
            EvalError::MissingInput("missing".into())
        );
        assert_eq!(ev("%0", &ins).unwrap_err(), EvalError::UnboundVariable(0));
        assert_eq!(ev("(app 1 2)", &ins).unwrap_err(), EvalError::NotAFunction);
        assert_eq!(
            ev("(get (build #2 (lam %0)) 5)", &ins).unwrap_err(),
            EvalError::IndexOutOfBounds { index: 5, len: 2 }
        );
    }

    #[test]
    fn library_dot_and_stats() {
        let ins = inputs(&[
            ("a", vec_val(&[1.0, 2.0, 3.0])),
            ("b", vec_val(&[4.0, 5.0, 6.0])),
        ]);
        let (v, stats) = eval_with_stats(&"(dot #3 a b)".parse().unwrap(), &ins).unwrap();
        assert_eq!(v.as_num(), Some(32.0));
        assert_eq!(stats.lib_calls, 1);
        assert!(stats.lib_time.contains_key("dot"));
    }

    #[test]
    fn library_gemv_and_variants() {
        let a = Value::from(Tensor::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let ins = inputs(&[
            ("A", a),
            ("B", vec_val(&[1.0, 1.0])),
            ("C", vec_val(&[0.0, 0.0])),
        ]);
        let v = ev("(gemv #2 #2 1 A B 0 C)", &ins).unwrap();
        assert_eq!(v.to_tensor().unwrap().data(), &[3.0, 7.0]);
        let vt = ev("(gemvT #2 #2 1 A B 0 C)", &ins).unwrap();
        assert_eq!(vt.to_tensor().unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn library_calls_agree_with_loop_forms() {
        // dot call vs ifold form on the same inputs.
        let ins = inputs(&[
            ("a", vec_val(&[1.5, -2.0, 3.0])),
            ("b", vec_val(&[2.0, 0.5, -1.0])),
        ]);
        let loopy = dsl::dot(3, dsl::sym("a"), dsl::sym("b"));
        let call: Expr = "(dot #3 a b)".parse().unwrap();
        assert_eq!(
            eval(&loopy, &ins).unwrap().as_num(),
            eval(&call, &ins).unwrap().as_num()
        );
    }

    #[test]
    fn memset_and_full() {
        let ins = inputs(&[]);
        let z = ev("(memset #4 0)", &ins).unwrap().to_tensor().unwrap();
        assert_eq!(z.data(), &[0.0; 4]);
        let f = ev("(full #3 2.5)", &ins).unwrap().to_tensor().unwrap();
        assert_eq!(f.data(), &[2.5; 3]);
    }

    #[test]
    fn nested_build_is_a_matrix() {
        let ins = inputs(&[]);
        let v = ev("(build #2 (lam (build #3 (lam (+ (* %1 3) %0)))))", &ins).unwrap();
        let t = v.to_tensor().unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
