//! Memory dumps: the captured execution context of a codelet's first
//! invocation.
//!
//! CAPS Codelet Finder runs the original application once and snapshots the
//! memory touched by each codelet; the standalone wrapper reloads the
//! snapshot before running the loop. Our codelets initialise their buffers
//! deterministically from the binding seed, so the dump stores the *layout
//! and generator recipe* plus a data witness (the first elements of every
//! array) used to verify integrity at restore time — semantically
//! equivalent to a full image at a fraction of the size.

use fgbs_isa::{Binding, Codelet, Memory};
use fgbs_store::{ByteReader, ByteWriter};

use crate::app::Application;

const MAGIC: u32 = 0x4647_4253; // "FGBS"
const VERSION: u32 = 1;
const WITNESS: usize = 8;
const TRUNCATED: &str = "dump truncated";

/// A captured first-invocation context, serialisable to a byte buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryDump {
    /// Qualified name of the dumped codelet.
    pub codelet: String,
    /// The captured binding (layout + trip parameters + data seed).
    pub binding: Binding,
    /// Serialised dump image.
    pub payload: Vec<u8>,
}

impl MemoryDump {
    /// Capture the first-invocation context of codelet `idx` in `app`.
    ///
    /// Returns `None` when the codelet cannot be outlined (not extractable)
    /// or never runs.
    pub fn capture(app: &Application, idx: usize) -> Option<MemoryDump> {
        let codelet = &app.codelets[idx];
        if !codelet.extractable {
            return None;
        }
        let binding = app.first_context(idx)?.clone();
        let payload = encode(codelet, &binding);
        Some(MemoryDump {
            codelet: codelet.qualified_name(),
            binding,
            payload,
        })
    }

    /// Rebuild the execution memory from the dump, verifying the witness.
    ///
    /// # Panics
    ///
    /// Panics if the payload is corrupt (truncated, bad magic/version or
    /// witness mismatch) — a corrupt dump must never silently produce a
    /// wrong microbenchmark.
    pub fn restore(&self, codelet: &Codelet) -> (Binding, Memory) {
        let mut buf = ByteReader::new(&self.payload);
        assert_eq!(buf.get_u32().expect(TRUNCATED), MAGIC, "bad dump magic");
        let version = buf.get_u32().expect(TRUNCATED);
        assert_eq!(version, VERSION, "unsupported dump version");
        let n_arrays = buf.get_u32().expect(TRUNCATED) as usize;
        assert_eq!(n_arrays, self.binding.arrays.len(), "array count mismatch");
        let mem = Memory::for_binding(codelet, &self.binding);
        for a in 0..n_arrays {
            let len = buf.get_u64().expect(TRUNCATED);
            assert_eq!(len, self.binding.arrays[a].len, "array length mismatch");
            let w = (len as usize).min(WITNESS);
            for i in 0..w {
                let expect = buf.get_u64().expect(TRUNCATED);
                let got = mem.get(a, i).to_bits();
                assert!(
                    expect == got,
                    "dump witness mismatch for {} array {a} elem {i}",
                    self.codelet
                );
            }
        }
        (self.binding.clone(), mem)
    }

    /// Size of the serialised dump in bytes.
    pub fn size_bytes(&self) -> usize {
        self.payload.len()
    }
}

fn encode(codelet: &Codelet, binding: &Binding) -> Vec<u8> {
    let mem = Memory::for_binding(codelet, binding);
    let mut out = ByteWriter::new();
    out.put_u32(MAGIC);
    out.put_u32(VERSION);
    out.put_u32(binding.arrays.len() as u32);
    for (a, ab) in binding.arrays.iter().enumerate() {
        out.put_u64(ab.len);
        let w = (ab.len as usize).min(WITNESS);
        for i in 0..w {
            out.put_u64(mem.get(a, i).to_bits());
        }
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ApplicationBuilder;
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};

    fn app() -> Application {
        let c = CodeletBuilder::new("k", "T")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[1]))
            .build();
        let hidden = CodeletBuilder::new("h", "T")
            .array("x", Precision::F64)
            .param_loop("n")
            .store("x", &[1], |b| b.constant(0.0))
            .non_extractable()
            .build();
        let b0 = BindingBuilder::new(0)
            .vector(64, 8)
            .vector(64, 8)
            .param(64)
            .seed(7)
            .build_for(&c);
        let b1 = BindingBuilder::new(1 << 16)
            .vector(256, 8)
            .vector(256, 8)
            .param(256)
            .build_for(&c);
        let bh = BindingBuilder::new(1 << 20)
            .vector(64, 8)
            .param(64)
            .build_for(&hidden);
        let mut ab = ApplicationBuilder::new("T");
        let i0 = ab.codelet(c, vec![b0, b1]);
        let ih = ab.codelet(hidden, vec![bh]);
        // First invocation uses context 1 on purpose: capture must follow
        // schedule order, not context-table order.
        ab.invoke(i0, 1, 1).invoke(i0, 0, 3).invoke(ih, 0, 1);
        ab.build()
    }

    #[test]
    fn captures_first_scheduled_context() {
        let app = app();
        let d = MemoryDump::capture(&app, 0).unwrap();
        assert_eq!(d.binding.params[0], 256);
        assert_eq!(d.codelet, "T/k");
        assert!(d.size_bytes() > 16);
    }

    #[test]
    fn non_extractable_yields_none() {
        let app = app();
        assert!(MemoryDump::capture(&app, 1).is_none());
    }

    #[test]
    fn restore_roundtrips() {
        let app = app();
        let d = MemoryDump::capture(&app, 0).unwrap();
        let (binding, mem) = d.restore(&app.codelets[0]);
        assert_eq!(binding, d.binding);
        assert_eq!(mem.array(0).len(), 256);
    }

    #[test]
    #[should_panic(expected = "bad dump magic")]
    fn corrupt_payload_is_rejected() {
        let app = app();
        let mut d = MemoryDump::capture(&app, 0).unwrap();
        let mut raw = d.payload.to_vec();
        raw[0] ^= 0xFF;
        d.payload = raw;
        let _ = d.restore(&app.codelets[0]);
    }

    #[test]
    #[should_panic(expected = "witness mismatch")]
    fn tampered_witness_is_rejected() {
        let app = app();
        let mut d = MemoryDump::capture(&app, 0).unwrap();
        let mut raw = d.payload.to_vec();
        let n = raw.len();
        raw[n - 1] ^= 0x01;
        d.payload = raw;
        let _ = d.restore(&app.codelets[0]);
    }

    #[test]
    #[should_panic(expected = "dump truncated")]
    fn truncated_payload_is_rejected() {
        let app = app();
        let mut d = MemoryDump::capture(&app, 0).unwrap();
        // Cut the last array's witness in the middle of an element.
        let n = d.payload.len();
        d.payload.truncate(n - 12);
        let _ = d.restore(&app.codelets[0]);
    }
}
