//! Table I: the B512 instruction encoding, printed from the one
//! instruction table in `rpu-isa` — every row with its opcode, flag bit,
//! operand-to-field assignment, pipeline class, cost class, and a sample
//! instruction whose 64-bit word is verified through the decode round
//! trip.
//!
//! Everything up to the `end of generated table` marker is committed as
//! `docs/b512-isa.md`; CI regenerates and diffs it.

use rpu::isa::table::{Operand, Reach};
use rpu::isa::{decode, encode, CostClass, Latency, Occupancy, ISA};
use rpu_bench::{print_comparison, PaperRow};

/// One operand as `FIELD=file`, `(w)` marking a destination.
fn operand_cell(operand: &Operand) -> String {
    match *operand {
        Operand::Reg {
            file,
            field,
            written,
        } => {
            let field = format!("{field:?}").to_uppercase();
            format!(
                "{field}={}{}",
                file.prefix(),
                if written { "(w)" } else { "" }
            )
        }
        Operand::Mem { reach, store } => {
            let space = match reach {
                Reach::Mode => "VDM, lanes by mode",
                Reach::Element => "VDM, one element",
                Reach::Indexed => "VDM, per-lane index",
                Reach::Sdm => "SDM",
            };
            let access = if store { "store" } else { "load" };
            format!("[RM=a + ADDRESS] ({access}: {space})")
        }
        Operand::Mode => "VS=MODE VT=VALUE".to_string(),
    }
}

/// A cost class as `occupancy; latency; events`, naming only the
/// events the instruction causes.
fn cost_cell(cost: &CostClass) -> String {
    let occupancy = match cost.occupancy {
        Occupancy::Lanes => "⌈512/H⌉",
        Occupancy::Multiplier => "⌈512/H⌉·II",
        Occupancy::Banks => "max(⌈512/H⌉, busiest bank)",
        Occupancy::Gather => "2·max(⌈512/H⌉, ⌈512/B⌉)",
        Occupancy::Sdm => "1",
    };
    let latency = match cost.latency {
        Latency::LoadStore => "ls",
        Latency::Add => "add",
        Latency::Mult => "mult",
        Latency::MultAdd => "mult + add",
        Latency::Shuffle => "shuffle",
    };
    let e = &cost.events;
    let events: Vec<String> = [
        ("VRF r", e.vrf_reads),
        ("VRF w", e.vrf_writes),
        ("VDM r", e.vdm_reads),
        ("VDM w", e.vdm_writes),
        ("SDM", e.sdm_accesses),
        ("mult", e.mult_ops),
        ("add", e.add_ops),
        ("VBAR", e.vbar),
        ("SBAR", e.sbar),
    ]
    .iter()
    .filter(|&&(_, count)| count > 0)
    .map(|(name, count)| format!("{name} {count}"))
    .collect();
    format!("{occupancy}; {latency}; {}", events.join(", "))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# B512 instruction table\n");
    println!("Generated by `cargo run --release -p rpu-bench --bin table1_isa` from");
    println!("`rpu_isa::ISA`, the one description of each instruction; do not edit.");
    println!("Word layout: `[63:55] VD1 | [54:49] VT1 | [48] FLAG | [47:44] OPCODE |");
    println!("[43:24] ADDRESS | [23:18] VD | [17:12] VS/MODE | [11:6] VT/RT/VALUE |");
    println!("[5:0] RM`. Operands are listed in assembly order. Every element these");
    println!("instructions move or compute on — a VDM or SDM word, a VRF lane, an");
    println!("SRF or MRF entry — is 128 bits wide architecturally; the width the");
    println!("simulator *stores* it in is not part of the ISA (see \"Lane storage");
    println!("width\" in `docs/arith-engines.md`).");
    println!("The cost class is what `rpu_sim::cost` times, for the cycle model and");
    println!("the list scheduler alike: issue occupancy in cycles (H HPLEs, B VDM");
    println!("banks, II the multiplier's initiation interval), the configured latency");
    println!("after it, and the elements each structure the energy model prices sees.\n");
    println!("| mnemonic | opcode | flag | pipe | cost class | operands | sample word | sample |");
    println!("|---|---|---|---|---|---|---|---|");
    for info in &ISA {
        let sample = info.sample();
        let word = encode(&sample);
        assert_eq!(decode(word)?, sample, "round trip");
        let operands: Vec<String> = info.operands.iter().map(operand_cell).collect();
        println!(
            "| `{}` | {} | {} | {} | {} | {} | `{word:#018x}` | `{sample}` |",
            info.mnemonic,
            info.opcode,
            u8::from(info.flag),
            info.pipe,
            cost_cell(&info.cost),
            operands.join(", "),
        );
    }
    println!("\n<!-- end of generated table -->");

    let rows = vec![
        PaperRow {
            metric: "distinct instructions".into(),
            paper: "17".into(),
            measured: format!("{} (+1 vgather extension)", ISA.len() - 1),
        },
        PaperRow {
            metric: "instruction width".into(),
            paper: "64-bit".into(),
            measured: format!("{}-bit", rpu::isa::consts::INSTR_BITS),
        },
        PaperRow {
            metric: "vector length".into(),
            paper: "512".into(),
            measured: format!("{}", rpu::isa::consts::VECTOR_LEN),
        },
        PaperRow {
            metric: "registers per file".into(),
            paper: "64".into(),
            measured: format!("{}", rpu::isa::consts::NUM_VREGS),
        },
    ];
    print_comparison("Table I (B512 ISA)", &rows);
    Ok(())
}
