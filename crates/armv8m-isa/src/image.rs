//! Executable images: the output of assembly and the input to the CPU,
//! the hash engine (`H_MEM`) and the verifier's path reconstruction.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{decode, DecodeError, Instr};

/// An assembled, address-resolved code image.
///
/// The image keeps both the raw bytes (what gets hashed into `H_MEM` and
/// what the MPU protects) and the decoded instruction stream indexed by
/// address (what the CPU executes and the verifier replays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    base: u32,
    bytes: Vec<u8>,
    instrs: Vec<(u32, Instr)>,
    symbols: HashMap<String, u32>,
    funcs: Vec<(String, u32)>,
    /// One entry per halfword of `[base, end)`: entry `(addr - base) / 2`
    /// is the position in `instrs` of the instruction starting at
    /// `addr`, or [`NO_INSTR`] for the second halfword of a 32-bit
    /// instruction.
    index: Box<[u32]>,
}

/// [`Image`] index entry of a halfword no instruction starts at.
const NO_INSTR: u32 = u32::MAX;

impl Image {
    pub(crate) fn from_parts(
        base: u32,
        bytes: Vec<u8>,
        instrs: Vec<(u32, Instr)>,
        symbols: HashMap<String, u32>,
        funcs: Vec<(String, u32)>,
    ) -> Image {
        let mut index = vec![NO_INSTR; bytes.len() / 2].into_boxed_slice();
        for (i, (addr, _)) in instrs.iter().enumerate() {
            index[((addr - base) / 2) as usize] = i as u32;
        }
        Image {
            base,
            bytes,
            instrs,
            symbols,
            funcs,
            index,
        }
    }

    /// Reconstructs an image by decoding a raw byte blob loaded at `base`.
    ///
    /// Symbol information is absent (empty tables); this models what a
    /// binary-only tool sees without the ELF symbol table.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the blob contains an invalid or
    /// truncated instruction.
    pub fn from_bytes(base: u32, bytes: Vec<u8>) -> Result<Image, DecodeError> {
        let mut instrs = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let addr = base + offset as u32;
            let (instr, size) = decode(&bytes[offset..], addr)?;
            instrs.push((addr, instr));
            offset += size as usize;
        }
        Ok(Image::from_parts(
            base,
            bytes,
            instrs,
            HashMap::new(),
            Vec::new(),
        ))
    }

    /// Base (load) address of the image.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One-past-the-end address of the image.
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The decoded instruction stream as `(address, instruction)` pairs
    /// in ascending address order.
    pub fn instrs(&self) -> &[(u32, Instr)] {
        &self.instrs
    }

    /// The position of `addr` among the image's halfwords, counted from
    /// the base, if `addr` is one of them. Tables with one entry per
    /// halfword, such as this image's instruction index and the
    /// verifier's replay table, are indexed by it.
    pub fn halfword(&self, addr: u32) -> Option<usize> {
        let offset = addr.wrapping_sub(self.base);
        let i = (offset / 2) as usize;
        (offset.is_multiple_of(2) && i < self.index.len()).then_some(i)
    }

    /// Looks up the instruction starting at `addr`: two array loads.
    pub fn instr_at(&self, addr: u32) -> Option<&Instr> {
        let i = self.index[self.halfword(addr)?];
        // `NO_INSTR` is past the end of `instrs`.
        self.instrs.get(i as usize).map(|(_, instr)| instr)
    }

    /// The address of the instruction following the one at `addr`.
    pub fn next_addr(&self, addr: u32) -> Option<u32> {
        self.instr_at(addr).map(|i| addr + i.size())
    }

    /// Resolves a symbol (label or function name) to its address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All symbols defined in the image.
    pub fn symbols(&self) -> &HashMap<String, u32> {
        &self.symbols
    }

    /// Function entry points in definition order.
    pub fn funcs(&self) -> &[(String, u32)] {
        &self.funcs
    }

    /// Whether `addr` is a function entry point.
    pub fn is_func_entry(&self, addr: u32) -> bool {
        self.funcs.iter().any(|(_, a)| *a == addr)
    }

    /// Renders the image as re-assemblable text assembly (`.tasm`):
    /// symbols become labels/`.func` directives and branch targets are
    /// emitted symbolically where a label exists. The output parses
    /// back through [`crate::parse_module`] into an equivalent image.
    pub fn to_tasm(&self) -> String {
        use crate::Target;
        let mut by_addr: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, addr) in &self.symbols {
            by_addr.entry(*addr).or_default().push(name);
        }
        let func_addrs: std::collections::HashSet<u32> =
            self.funcs.iter().map(|(_, a)| *a).collect();
        let mut out = String::new();
        for (addr, instr) in &self.instrs {
            if let Some(names) = by_addr.get(addr) {
                let mut names = names.clone();
                names.sort_unstable();
                for name in names {
                    if func_addrs.contains(addr)
                        && self.funcs.iter().any(|(n, a)| n == name && a == addr)
                    {
                        let _ = writeln!(out, ".func {name}");
                    } else {
                        let _ = writeln!(out, "{name}:");
                    }
                }
            }
            // Symbolic branch targets where possible.
            let mut display = instr.clone();
            if let Some(t) = display.target_mut() {
                if let Target::Abs(a) = t {
                    if let Some(names) = by_addr.get(a) {
                        let mut names = names.clone();
                        names.sort_unstable();
                        *t = Target::label(names[0]);
                    }
                }
            }
            let _ = writeln!(out, "    {display}");
        }
        out
    }

    /// Renders a human-readable disassembly listing with addresses and
    /// symbol annotations.
    pub fn disassemble(&self) -> String {
        let mut by_addr: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, addr) in &self.symbols {
            by_addr.entry(*addr).or_default().push(name);
        }
        let mut out = String::new();
        for (addr, instr) in &self.instrs {
            if let Some(names) = by_addr.get(addr) {
                let mut names = names.clone();
                names.sort_unstable();
                for name in names {
                    let _ = writeln!(out, "{name}:");
                }
            }
            let _ = writeln!(out, "  {addr:#010x}: {instr}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Reg};

    fn sample() -> Image {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 7);
        a.label("spin");
        a.subi(Reg::R0, Reg::R0, 1);
        a.bne("spin");
        a.halt();
        a.into_module().assemble(0x100).expect("assembles")
    }

    #[test]
    fn lookup_by_address() {
        let image = sample();
        let spin = image.symbol("spin").unwrap();
        assert!(image.instr_at(spin).is_some());
        assert!(image.instr_at(spin + 1).is_none());
        assert_eq!(image.next_addr(spin), Some(spin + 2));
    }

    #[test]
    fn from_bytes_roundtrip() {
        let image = sample();
        let redecoded = Image::from_bytes(image.base(), image.bytes().to_vec()).expect("decodes");
        let original: Vec<_> = image.instrs().to_vec();
        assert_eq!(redecoded.instrs(), &original[..]);
        assert_eq!(redecoded.end(), image.end());
    }

    #[test]
    fn func_entries() {
        let image = sample();
        assert!(image.is_func_entry(0x100));
        assert!(!image.is_func_entry(0x102));
    }

    /// Two functions, narrow and 32-bit instructions mixed: `bl` and
    /// `bne` are 32-bit, the rest 16-bit.
    fn two_funcs() -> Image {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 3);
        a.bl("helper");
        a.label("spin");
        a.subi(Reg::R0, Reg::R0, 1);
        a.bne("spin");
        a.halt();
        a.func("helper");
        a.addi(Reg::R1, Reg::R1, 1);
        a.ret();
        a.into_module().assemble(0x200).expect("assembles")
    }

    /// Checks `instr_at` at every byte address from `base - 2` to
    /// `end + 2` against the instruction list, and that `next_addr`
    /// walks exactly that list from `base` to `end`.
    fn assert_index_matches_instrs(image: &Image) {
        let starts: HashMap<u32, &Instr> = image.instrs().iter().map(|(a, i)| (*a, i)).collect();
        for addr in image.base() - 2..=image.end() + 2 {
            assert_eq!(
                image.instr_at(addr),
                starts.get(&addr).copied(),
                "{addr:#x}"
            );
        }
        let mut walked = Vec::new();
        let mut pc = image.base();
        while let Some(next) = image.next_addr(pc) {
            walked.push(pc);
            pc = next;
        }
        assert_eq!(pc, image.end(), "next_addr stops only at the end");
        let listed: Vec<u32> = image.instrs().iter().map(|(a, _)| *a).collect();
        assert_eq!(walked, listed);
    }

    #[test]
    fn dense_index_answers_every_address() {
        let image = two_funcs();
        assert_index_matches_instrs(&image);
        assert_eq!(image.halfword(image.base()), Some(0));
        assert_eq!(image.halfword(image.base() + 1), None);
        assert_eq!(image.halfword(image.base() - 2), None);
        assert_eq!(image.halfword(image.end()), None);
        assert_eq!(
            image.halfword(image.end() - 2),
            Some(image.bytes().len() / 2 - 1)
        );
        assert_eq!(image.instr_at(image.base() - 2), None);
        assert_eq!(image.instr_at(image.end()), None);
        assert_eq!(image.next_addr(image.end()), None);
        let (bl_addr, bl) = image
            .instrs()
            .iter()
            .find(|(_, i)| matches!(i, Instr::Bl { .. }))
            .expect("a bl");
        assert_eq!(bl.size(), 4);
        assert_eq!(image.instr_at(bl_addr + 2), None, "second halfword of bl");
        assert_eq!(image.next_addr(*bl_addr), Some(bl_addr + 4));
    }

    #[test]
    fn dense_index_at_an_odd_base() {
        let assembled = two_funcs();
        let image = Image::from_bytes(0x201, assembled.bytes().to_vec()).expect("decodes");
        assert_eq!(image.end(), 0x201 + assembled.bytes().len() as u32);
        assert_index_matches_instrs(&image);
        assert!(image.instr_at(0x201).is_some());
        assert_eq!(image.instr_at(0x200), None);
        assert_eq!(image.instr_at(0x202), None);
    }

    #[test]
    fn func_entry_on_every_function_and_not_between() {
        let image = two_funcs();
        let entries: Vec<u32> = image.funcs().iter().map(|(_, a)| *a).collect();
        assert_eq!(entries.len(), 2);
        for entry in &entries {
            assert!(image.is_func_entry(*entry), "{entry:#x}");
        }
        let spin = image.symbol("spin").expect("label");
        assert!(!entries.contains(&spin));
        assert!(!image.is_func_entry(spin), "a label is not a function");
    }

    #[test]
    fn to_tasm_reassembles_byte_identically() {
        let image = sample();
        let tasm = image.to_tasm();
        assert!(tasm.contains(".func main"), "{tasm}");
        assert!(tasm.contains("spin:"), "{tasm}");
        let module = crate::parse_module(&tasm).expect("parses");
        let rebuilt = module.assemble(image.base()).expect("assembles");
        assert_eq!(rebuilt.bytes(), image.bytes());
        assert_eq!(rebuilt.symbol("spin"), image.symbol("spin"));
    }

    #[test]
    fn to_tasm_without_symbols_uses_absolute_targets() {
        let image = sample();
        let bare = Image::from_bytes(image.base(), image.bytes().to_vec()).unwrap();
        let tasm = bare.to_tasm();
        let rebuilt = crate::parse_module(&tasm)
            .expect("parses")
            .assemble(image.base())
            .expect("assembles");
        assert_eq!(rebuilt.bytes(), image.bytes());
    }

    #[test]
    fn disassembly_contains_symbols_and_addresses() {
        let listing = sample().disassemble();
        assert!(listing.contains("main:"));
        assert!(listing.contains("spin:"));
        assert!(listing.contains("0x00000100"));
        assert!(listing.contains("halt"));
    }
}
