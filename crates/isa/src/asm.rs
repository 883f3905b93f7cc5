//! A small two-way assembler for B512.
//!
//! [`parse_asm`] accepts the text produced by
//! [`Program::to_asm`](crate::Program::to_asm), so programs survive a
//! text round-trip — convenient for inspecting and hand-editing the
//! kernels SPIRAL-style generators emit.

use crate::instr::{AddrMode, Instruction};
use crate::program::Program;
use crate::table::{Operand, Operands, RegFile, ADDRESS_BITS, ISA, REGS_PER_FILE};

/// Error parsing assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

/// Parses assembly text into a [`Program`].
///
/// Lines starting with `;` and blank lines are ignored. The accepted
/// syntax is exactly what [`Program::to_asm`](crate::Program::to_asm)
/// emits; see [`Instruction`]'s `Display` impl for the grammar.
///
/// # Examples
///
/// ```
/// use rpu_isa::parse_asm;
///
/// let program = parse_asm(
///     "pointwise",
///     "; v2 <- v0 * v1 (mod m0), then spill to the VDM\n\
///      vmulmod v2, v0, v1, m0\n\
///      vstore v2, [a0 + 512], unit\n",
/// )?;
/// assert_eq!(program.len(), 2);
/// // The printed form round-trips through the parser.
/// assert_eq!(parse_asm("rt", &program.to_asm())?.instructions(),
///            program.instructions());
/// # Ok::<(), rpu_isa::ParseAsmError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseAsmError`] identifying the first malformed line.
pub fn parse_asm(name: impl Into<String>, text: &str) -> Result<Program, ParseAsmError> {
    let mut program = Program::new(name);
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        program.push(parse_line(line).map_err(|message| ParseAsmError {
            line: line_no,
            message,
        })?);
    }
    Ok(program)
}

fn parse_line(line: &str) -> Result<Instruction, String> {
    let (mnemonic, rest) = line
        .split_once(char::is_whitespace)
        .ok_or_else(|| format!("missing operands in {line:?}"))?;
    let toks: Vec<&str> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let info = ISA
        .iter()
        .find(|info| info.mnemonic == mnemonic)
        .ok_or_else(|| format!("unknown mnemonic {mnemonic:?}"))?;
    if toks.len() != info.operands.len() {
        return Err(format!(
            "{mnemonic} expects {} operands, found {}",
            info.operands.len(),
            toks.len()
        ));
    }
    let mut o = Operands::NONE;
    for (k, (operand, tok)) in info.operands.iter().zip(toks).enumerate() {
        match *operand {
            Operand::Reg { file, .. } => o.regs[k] = reg(tok, file)?,
            Operand::Mem { .. } => (o.regs[k], o.offset) = mem_operand(tok)?,
            Operand::Mode => o.mode = addr_mode(tok)?,
        }
    }
    Ok(Instruction::from_parts(info.op, &o))
}

fn reg(tok: &str, file: RegFile) -> Result<u8, String> {
    let prefix = file.prefix();
    let rest = tok
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected {prefix}-register, found {tok:?}"))?;
    let index = rest
        .parse::<u8>()
        .map_err(|_| format!("bad register index in {tok:?}"))?;
    if usize::from(index) >= REGS_PER_FILE {
        return Err(format!("{} register out of range: {tok}", file.name()));
    }
    Ok(index)
}

/// Parses `[aN + OFFSET]`.
fn mem_operand(tok: &str) -> Result<(u8, u32), String> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected [aN + offset], found {tok:?}"))?;
    let (base_s, off_s) = inner
        .split_once('+')
        .ok_or_else(|| format!("expected [aN + offset], found {tok:?}"))?;
    let base = reg(base_s.trim(), RegFile::Address)?;
    let offset = off_s
        .trim()
        .parse::<u32>()
        .map_err(|_| format!("bad offset in {tok:?}"))?;
    if offset >= 1 << ADDRESS_BITS {
        return Err(format!(
            "offset {offset} exceeds the {ADDRESS_BITS}-bit address field"
        ));
    }
    Ok((base, offset))
}

fn addr_mode(tok: &str) -> Result<AddrMode, String> {
    if tok == "unit" {
        return Ok(AddrMode::Unit);
    }
    let (kind, val) = tok
        .split_once(':')
        .ok_or_else(|| format!("unknown addressing mode {tok:?}"))?;
    let v: u64 = val
        .parse()
        .map_err(|_| format!("bad mode parameter in {tok:?}"))?;
    if !v.is_power_of_two() {
        return Err(format!("mode parameter must be a power of two: {tok:?}"));
    }
    let log2 = v.trailing_zeros() as u8;
    match kind {
        "stride" => Ok(AddrMode::Strided { log2_stride: log2 }),
        "skip" => Ok(AddrMode::StridedSkip { log2_block: log2 }),
        "rep" => Ok(AddrMode::Repeated { log2_block: log2 }),
        _ => Err(format!("unknown addressing mode {tok:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing_style_kernel() {
        let text = "\
; kernel _ntt1024x512_b1
vload   v60, [a1 + 0], unit
vload   v20, [a1 + 8192], unit
vbroadcast v19, [a3 + 1]
vmulmod v59, v20, v19, m1
vaddmod v58, v60, v59, m1
vsubmod v57, v60, v59, m1
unpklo  v56, v58, v57
vstore  v21, [a2 + 16], stride:2
";
        let p = parse_asm("ntt1024", text).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(p.mix().compute, 3);
        assert_eq!(p.mix().shuffle, 1);
        assert_eq!(p.mix().load_store, 4);
    }

    #[test]
    fn asm_round_trip() {
        let text = "\
vload   v1, [a0 + 12], skip:32
bfly    v2, v3, v4, v5, v6, m7
pkhi    v8, v9, v10
sload   s11, [a12 + 13]
";
        let p = parse_asm("rt", text).unwrap();
        let p2 = parse_asm("rt", &p.to_asm()).unwrap();
        assert_eq!(p.instructions(), p2.instructions());
    }

    #[test]
    fn error_reports_line() {
        let err = parse_asm("bad", "vload v1, [a0 + 0], unit\nbogus v1, v2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(parse_asm("x", "vaddmod v64, v0, v0, m0").is_err());
        assert!(parse_asm("x", "vload v0, [a0 + 1048576], unit").is_err());
        assert!(parse_asm("x", "vload v0, [a0 + 0], skip:3").is_err());
    }
}
