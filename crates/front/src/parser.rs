//! Recursive-descent parser and lowering for the `.pj` kernel language.
//!
//! The language describes the fused operators AKG receives: parameters,
//! tensors, and statements with rectangular iteration domains, one write,
//! and an arithmetic expression over affine tensor accesses:
//!
//! ```text
//! kernel fused_mul_sub_mul_tensoradd
//! param N = 1024
//! tensor A[N][N]: f32
//! tensor B[N][N]: f32
//! tensor C[N][N]: f32
//! tensor D[N][N][N]: f32
//!
//! stmt X for (i in 0..N, k in 0..N)
//!   B[i][k] = 2.0 * A[i][k]
//!
//! stmt Y for (i in 0..N, j in 0..N, k in 0..N)
//!   C[i][j] = C[i][j] + B[i][k] * D[k][i][j]
//! ```

use crate::lexer::{lex, LexError, Token, TokenKind};
use polyject_ir::{
    BinOp, ElemType, Expr, Extent, Idx, Kernel, KernelBuilder, ParamId, StatementBuilder, TensorId,
    UnOp,
};
use std::collections::HashMap;
use std::fmt;

/// A parse (or lowering) error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses a `.pj` source into a [`Kernel`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the position of the first problem.
///
/// # Examples
///
/// ```
/// let src = "
/// kernel relu
/// param N = 16
/// tensor A[N]: f32
/// tensor B[N]: f32
/// stmt S for (i in 0..N) B[i] = relu(A[i])
/// ";
/// let kernel = polyject_front::parse(src).unwrap();
/// assert_eq!(kernel.name(), "relu");
/// assert_eq!(kernel.statements().len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Kernel, ParseError> {
    Parser::new(lex(src)?).kernel()
}

/// The deepest expression tree [`parse`] builds. Everything downstream
/// of it — emission, evaluation, lowering, rendering, even dropping the
/// tree — recurses once per level, and so does this parser, up to twice
/// per level (canonical `.pj` spells a negation `(-x)`); a source must
/// not decide how much stack that takes. [`crate::emit_pj`] parenthesises
/// every binary operation, so a sum of n terms is n levels deep and its
/// canonical form nests as far: the bound is on the tree, whichever way
/// it was written, and is far above any fused operator's expression yet
/// a small share of a 2 MiB thread stack.
pub(crate) const MAX_EXPR_DEPTH: usize = 256;

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    pos: usize,
    /// `factor` calls on the stack.
    nesting: usize,
    params: HashMap<&'src str, ParamId>,
    tensors: HashMap<&'src str, (TensorId, usize)>, // id, rank
    builder: KernelBuilder,
}

/// A parsed statement's iterator context.
struct Iters<'src> {
    names: Vec<&'src str>,
    uppers: Vec<Extent>,
    lowers: Vec<i64>,
}

/// A statement's distinct reads in order of first appearance, as
/// [`Expr::Read`] numbers them.
type Reads = Vec<(TensorId, Vec<Idx>)>;

/// An error at token `t`'s position.
fn error_at(t: &Token<'_>, message: String) -> ParseError {
    ParseError {
        message,
        line: t.line,
        col: t.col,
    }
}

impl<'src> Parser<'src> {
    fn new(tokens: Vec<Token<'src>>) -> Parser<'src> {
        Parser {
            tokens,
            pos: 0,
            nesting: 0,
            params: HashMap::new(),
            tensors: HashMap::new(),
            builder: KernelBuilder::default(),
        }
    }

    /// The current token's kind (a copy: tokens borrow, never own).
    fn peek(&self) -> TokenKind<'src> {
        self.tokens[self.pos].kind
    }

    /// Moves past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(error_at(&self.tokens[self.pos], message.into()))
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<&'src str, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let got = self.ident()?;
        if got == kw {
            Ok(())
        } else {
            self.err(format!("expected keyword `{kw}`, found `{got}`"))
        }
    }

    fn kernel(mut self) -> Result<Kernel, ParseError> {
        self.keyword("kernel")?;
        self.builder = KernelBuilder::new(self.ident()?);
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Ident("param") => self.param()?,
                TokenKind::Ident("tensor") => self.tensor()?,
                TokenKind::Ident("stmt") => self.statement()?,
                other => {
                    return self.err(format!(
                        "expected `param`, `tensor` or `stmt`, found {other}"
                    ))
                }
            }
        }
        let eof = self.tokens[self.pos];
        self.builder.finish().map_err(|m| error_at(&eof, m))
    }

    fn param(&mut self) -> Result<(), ParseError> {
        self.keyword("param")?;
        let name = self.ident()?;
        self.expect(TokenKind::Eq)?;
        let value = self.int()?;
        if self.params.contains_key(name) {
            return self.err(format!("parameter `{name}` already declared"));
        }
        let id = self.builder.param(name, value);
        self.params.insert(name, id);
        Ok(())
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => self.err(format!("expected integer, found {other}")),
        }
    }

    fn tensor(&mut self) -> Result<(), ParseError> {
        self.keyword("tensor")?;
        let name = self.ident()?;
        let mut dims = Vec::new();
        while self.peek() == TokenKind::LBracket {
            self.bump();
            dims.push(self.extent()?);
            self.expect(TokenKind::RBracket)?;
        }
        let elem = if self.peek() == TokenKind::Colon {
            self.bump();
            match self.ident()? {
                "f32" => ElemType::F32,
                "f16" => ElemType::F16,
                other => return self.err(format!("unknown element type `{other}`")),
            }
        } else {
            ElemType::F32
        };
        if self.tensors.contains_key(name) {
            return self.err(format!("tensor `{name}` already declared"));
        }
        let rank = dims.len();
        let id = self.builder.tensor(name, dims, elem);
        self.tensors.insert(name, (id, rank));
        Ok(())
    }

    fn extent(&mut self) -> Result<Extent, ParseError> {
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Extent::Const(v))
            }
            TokenKind::Ident(name) => {
                let Some(&p) = self.params.get(name) else {
                    return self.err(format!("unknown parameter `{name}`"));
                };
                self.bump();
                Ok(Extent::Param(p))
            }
            other => self.err(format!("expected extent, found {other}")),
        }
    }

    fn statement(&mut self) -> Result<(), ParseError> {
        // A statement the kernel builder rejects is reported at its `stmt`.
        let stmt = self.tokens[self.pos];
        self.keyword("stmt")?;
        let name = self.ident()?;
        self.keyword("for")?;
        self.expect(TokenKind::LParen)?;
        let mut iters = Iters {
            names: Vec::new(),
            uppers: Vec::new(),
            lowers: Vec::new(),
        };
        loop {
            let it = self.ident()?;
            self.keyword("in")?;
            let lo = self.int()?;
            self.expect(TokenKind::DotDot)?;
            let hi = self.extent()?;
            if iters.names.contains(&it) {
                return self.err(format!("duplicate iterator `{it}`"));
            }
            iters.names.push(it);
            iters.lowers.push(lo);
            iters.uppers.push(hi);
            if self.peek() == TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;

        // Write access.
        let (write_tensor, write_idx) = self.access(&iters)?;
        self.expect(TokenKind::Eq)?;

        // Expression; reads are collected as encountered.
        let mut reads = Reads::new();
        let (expr, _) = self.expr(&iters, &mut reads)?;

        let mut sb = StatementBuilder::new(name, &iters.names);
        for (i, (&lo, up)) in iters.lowers.iter().zip(&iters.uppers).enumerate() {
            match (lo, up) {
                (0, up) => sb = sb.bound_extent(i, *up),
                (lo, Extent::Const(hi)) => sb = sb.bound_range(i, lo, hi - 1),
                _ => {
                    let msg = "non-zero lower bounds require a constant upper bound";
                    return Err(error_at(&stmt, msg.to_string()));
                }
            }
        }
        sb = sb.write(write_tensor, &write_idx);
        for (t, idx) in &reads {
            sb = sb.read(*t, idx);
        }
        sb = sb.expr(expr);
        self.builder
            .add_statement(sb)
            .map_err(|m| error_at(&stmt, m))?;
        Ok(())
    }

    fn access(&mut self, iters: &Iters<'_>) -> Result<(TensorId, Vec<Idx>), ParseError> {
        let name = self.ident()?;
        let Some(&(tid, rank)) = self.tensors.get(name) else {
            return self.err(format!("unknown tensor `{name}`"));
        };
        let mut idx = Vec::with_capacity(rank);
        while self.peek() == TokenKind::LBracket {
            self.bump();
            idx.push(self.index(iters)?);
            self.expect(TokenKind::RBracket)?;
        }
        if idx.len() != rank {
            return self.err(format!(
                "tensor `{name}` has rank {rank}, got {} indices",
                idx.len()
            ));
        }
        Ok((tid, idx))
    }

    fn index(&mut self, iters: &Iters<'_>) -> Result<Idx, ParseError> {
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Idx::Const(v))
            }
            TokenKind::Ident(name) => {
                let Some(pos) = iters.names.iter().position(|&n| n == name) else {
                    return self.err(format!("unknown iterator `{name}` in index"));
                };
                self.bump();
                let sign = match self.peek() {
                    TokenKind::Plus => 1,
                    TokenKind::Minus => -1,
                    _ => return Ok(Idx::Iter(pos)),
                };
                self.bump();
                Ok(Idx::IterPlus(pos, sign * self.int()?))
            }
            other => self.err(format!("expected index, found {other}")),
        }
    }

    /// The depth of a tree one level above subtrees of depth `below`.
    fn deeper(&self, below: usize) -> Result<usize, ParseError> {
        if below < MAX_EXPR_DEPTH {
            Ok(below + 1)
        } else {
            self.too_deep()
        }
    }

    fn too_deep<T>(&self) -> Result<T, ParseError> {
        self.err(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// expr := term (('+'|'-') term)*
    fn expr(&mut self, iters: &Iters<'_>, reads: &mut Reads) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut depth) = self.term(iters, reads)?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.term(iters, reads)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok((lhs, depth))
    }

    /// term := factor (('*'|'/') factor)*
    fn term(&mut self, iters: &Iters<'_>, reads: &mut Reads) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut depth) = self.factor(iters, reads)?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.factor(iters, reads)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok((lhs, depth))
    }

    /// factor := number | '-' factor | '(' expr ')' | fn '(' expr [',' expr] ')' | access
    ///
    /// The one place the parser re-enters itself, so the one place that
    /// counts how far it has (see [`MAX_EXPR_DEPTH`]).
    fn factor(
        &mut self,
        iters: &Iters<'_>,
        reads: &mut Reads,
    ) -> Result<(Expr, usize), ParseError> {
        if self.nesting == 2 * MAX_EXPR_DEPTH {
            return self.too_deep();
        }
        self.nesting += 1;
        let parsed = self.nested_factor(iters, reads);
        self.nesting -= 1;
        parsed
    }

    fn nested_factor(
        &mut self,
        iters: &Iters<'_>,
        reads: &mut Reads,
    ) -> Result<(Expr, usize), ParseError> {
        match self.peek() {
            TokenKind::Float(v) => {
                self.bump();
                Ok((Expr::Const(v), 1))
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok((Expr::Const(v as f32), 1))
            }
            TokenKind::Minus => {
                self.bump();
                let (inner, depth) = self.factor(iters, reads)?;
                Ok((Expr::un(UnOp::Neg, inner), self.deeper(depth)?))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr(iters, reads)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // Function call, or tensor access. An identifier is never
                // the last token, so the lookahead is in bounds.
                let call = self.tokens[self.pos + 1].kind == TokenKind::LParen;
                if let Some(un) = unary_fn(name).filter(|_| call) {
                    self.bump();
                    self.bump();
                    let (arg, depth) = self.expr(iters, reads)?;
                    self.expect(TokenKind::RParen)?;
                    return Ok((Expr::un(un, arg), self.deeper(depth)?));
                }
                if let Some(bin) = binary_fn(name).filter(|_| call) {
                    self.bump();
                    self.bump();
                    let (a, a_depth) = self.expr(iters, reads)?;
                    self.expect(TokenKind::Comma)?;
                    let (b, b_depth) = self.expr(iters, reads)?;
                    self.expect(TokenKind::RParen)?;
                    return Ok((Expr::bin(bin, a, b), self.deeper(a_depth.max(b_depth))?));
                }
                let (tid, idx) = self.access(iters)?;
                // Dedupe identical reads.
                let read_i = reads
                    .iter()
                    .position(|(t, i)| *t == tid && *i == idx)
                    .unwrap_or_else(|| {
                        reads.push((tid, idx));
                        reads.len() - 1
                    });
                Ok((Expr::Read(read_i), 1))
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

fn unary_fn(name: &str) -> Option<UnOp> {
    match name {
        "relu" => Some(UnOp::Relu),
        "exp" => Some(UnOp::Exp),
        "sqrt" => Some(UnOp::Sqrt),
        "recip" => Some(UnOp::Recip),
        "tanh" => Some(UnOp::Tanh),
        _ => None,
    }
}

fn binary_fn(name: &str) -> Option<BinOp> {
    match name {
        "max" => Some(BinOp::Max),
        "min" => Some(BinOp::Min),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNNING: &str = "
kernel fused_mul_sub_mul_tensoradd
param N = 16
tensor A[N][N]: f32
tensor B[N][N]: f32
tensor C[N][N]: f32
tensor D[N][N][N]: f32

stmt X for (i in 0..N, k in 0..N)
  B[i][k] = 2.0 * A[i][k]

stmt Y for (i in 0..N, j in 0..N, k in 0..N)
  C[i][j] = C[i][j] + B[i][k] * D[k][i][j]
";

    #[test]
    fn parses_the_running_example() {
        let k = parse(RUNNING).unwrap();
        assert_eq!(k.name(), "fused_mul_sub_mul_tensoradd");
        assert_eq!(k.statements().len(), 2);
        assert_eq!(k.statements()[1].reads().len(), 3);
        // Structural agreement with the built-in constructor.
        let builtin = polyject_ir::ops::running_example(16);
        assert_eq!(
            k.statements()[1].write().indices(),
            builtin.statements()[1].write().indices()
        );
    }

    #[test]
    fn parsed_kernel_executes_like_builtin() {
        let parsed = parse(RUNNING).unwrap();
        let builtin = polyject_ir::ops::running_example(16);
        let mut b1 = parsed.zero_buffers(&[16]);
        for (i, buf) in b1.iter_mut().enumerate() {
            for (j, v) in buf.iter_mut().enumerate() {
                *v = ((i + 3) * j % 17) as f32 - 8.0;
            }
        }
        let mut b2 = b1.clone();
        parsed.execute_reference(&mut b1, &[16]);
        builtin.execute_reference(&mut b2, &[16]);
        assert_eq!(b1, b2);
    }

    #[test]
    fn functions_and_precedence() {
        let src = "
kernel f
tensor a[8]: f32
tensor b[8]: f32
stmt S for (i in 0..8) b[i] = max(relu(a[i]) + 2.0 * a[i], 1.0)
";
        let k = parse(src).unwrap();
        // `a[i]` appears twice but identical accesses dedupe to one read.
        assert_eq!(k.statements()[0].reads().len(), 1);
        let mut bufs = k.zero_buffers(&[]);
        bufs[0] = vec![-1.0, 0.5, 2.0, -3.0, 1.0, 0.0, 4.0, -2.0];
        k.execute_reference(&mut bufs, &[]);
        // max(relu(x) + 2x, 1)
        assert_eq!(bufs[1][0], 1.0); // relu(-1)+2*(-1) = -2 → 1
        assert_eq!(bufs[1][2], 6.0); // 2 + 4
    }

    #[test]
    fn shifted_index_and_range_lower_bound() {
        let src = "
kernel scan
tensor a[8]: f32
stmt S for (i in 1..8) a[i] = a[i - 1] + a[i]
";
        let k = parse(src).unwrap();
        let mut bufs = k.zero_buffers(&[]);
        bufs[0] = vec![1.0; 8];
        k.execute_reference(&mut bufs, &[]);
        assert_eq!(bufs[0], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
    }

    #[test]
    fn error_positions_and_messages() {
        let cases = [
            (
                "kernel k\ntensor a[4]: f32\nstmt S for (i in 0..4) z[i] = 1.0",
                "unknown tensor",
            ),
            (
                "kernel k\ntensor a[4]: f32\nstmt S for (i in 0..4) a[j] = 1.0",
                "unknown iterator",
            ),
            (
                "kernel k\ntensor a[4][4]: f32\nstmt S for (i in 0..4) a[i] = 1.0",
                "rank",
            ),
            ("kernel k\nparam N = 2\nparam N = 3", "already declared"),
            ("kernel k\ntensor a[M]: f32", "unknown parameter"),
        ];
        for (src, needle) in cases {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains(needle), "{src} → {e}");
        }
    }

    #[test]
    fn a_rejected_statement_is_reported_at_its_stmt_keyword() {
        let s = "kernel oob\ntensor A[8]: f32\ntensor B[8]: f32\n\
                 stmt S for (i in 0..8)\n  B[i] = A[i + 4]\n";
        let t = "stmt T for (i in 0..8)\n  A[i] = B[i]\n";
        let want = "4:1: S: read of A spans [4, 11] in dimension 0, outside its extent 8";
        // Alone, the statement ends the file; followed by `T`, it does not.
        for src in [s.to_string(), format!("{s}\n{t}")] {
            assert_eq!(parse(&src).unwrap_err().to_string(), want, "{src}");
        }
    }

    #[test]
    fn a_parametric_range_with_a_lower_bound_is_reported_at_its_stmt_keyword() {
        let src = "kernel lo\nparam N = 8\ntensor A[N]: f32\n\
                   stmt S for (i in 1..N)\n  A[i] = A[i] * 2.0\n";
        let want = "4:1: non-zero lower bounds require a constant upper bound";
        assert_eq!(parse(src).unwrap_err().to_string(), want);
    }

    #[test]
    fn expression_depth_is_bounded_however_it_is_written() {
        let with = |expr: &str| {
            let head = "kernel k\nparam N = 8\ntensor A[N]: f32\ntensor B[N]: f32\n";
            parse(&format!("{head}stmt S for (i in 0..N) B[i] = {expr}\n"))
        };
        let sum = |terms: usize| vec!["A[i]"; terms].join(" + ");
        let too_deep = |e: ParseError| e.message.contains("nests deeper than 256");
        // The deepest trees accepted, written the cheapest way, have a
        // canonical form (every level parenthesised) that parses back.
        for flat in [
            sum(MAX_EXPR_DEPTH),
            format!("{}A[i]", "-".repeat(MAX_EXPR_DEPTH - 1)),
        ] {
            let kernel = with(&flat).unwrap();
            let canonical = crate::emit_pj(&kernel).unwrap();
            assert_eq!(crate::canonical_pj(&canonical).unwrap(), canonical);
        }
        assert!(too_deep(with(&sum(MAX_EXPR_DEPTH + 1)).unwrap_err()));
        assert!(too_deep(with(&sum(200_000)).unwrap_err()));
        assert!(too_deep(
            with(&format!("{}A[i]", "-".repeat(200_000))).unwrap_err()
        ));
        let parens = |n: usize| format!("{}A[i]{}", "(".repeat(n), ")".repeat(n));
        assert!(with(&parens(2 * MAX_EXPR_DEPTH - 1)).is_ok());
        assert!(too_deep(with(&parens(5_000)).unwrap_err()));
        assert!(too_deep(
            with(&format!("{}A[i]", "exp(".repeat(200_000))).unwrap_err()
        ));
    }

    #[test]
    fn f16_tensors() {
        let src = "
kernel t
tensor a[4][4]: f16
tensor b[4][4]: f16
stmt S for (i in 0..4, j in 0..4) b[j][i] = a[i][j]
";
        let k = parse(src).unwrap();
        assert_eq!(k.tensors()[0].elem(), ElemType::F16);
    }
}
