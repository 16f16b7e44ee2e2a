//! Independent output checks: every schedule is re-validated by the cycle
//! simulator (`pipesched_sim::validate_schedule`) and certified by the
//! `pipesched_analyze` certifier, against the block that was sent.

use pipesched_analyze::{certify, Claim};
use pipesched_ir::{BasicBlock, DepDag, TupleId};
use pipesched_machine::{Machine, PipelineId};

/// Check one claimed schedule; `Err` says what is wrong with it.
pub fn schedule(
    block: &BasicBlock,
    machine: &Machine,
    order: &[TupleId],
    assignment: Option<&[Option<PipelineId>]>,
    etas: &[u32],
    nops: u32,
) -> Result<(), String> {
    if order.len() != block.len() || etas.len() != order.len() {
        return Err(format!(
            "schedule covers {} of {} tuples with {} etas",
            order.len(),
            block.len(),
            etas.len()
        ));
    }
    if etas.iter().map(|&e| u64::from(e)).sum::<u64>() != u64::from(nops) {
        return Err(format!("etas do not sum to the claimed {nops} NOPs"));
    }
    let dag = DepDag::build(block);
    pipesched_sim::validate_schedule(block, &dag, machine, order, etas)
        .map_err(|e| format!("simulator rejects the schedule: {e}"))?;
    let cert = certify(
        block,
        machine,
        Claim {
            order,
            assignment,
            etas: Some(etas),
            nops: Some(nops),
        },
    );
    if !cert.is_certified() {
        return Err(format!(
            "certifier rejects the schedule: {}",
            cert.report.render_text()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_real_schedule_and_rejects_a_tampered_one() {
        let block = crate::gen::corpus(11, 1).remove(0);
        let machine = crate::machine();
        let dag = DepDag::build(&block);
        let ctx = pipesched_core::SchedContext::new(&block, &dag, &machine);
        let out = pipesched_core::search(&ctx, &pipesched_core::SearchConfig::default());
        assert_eq!(
            schedule(
                &block,
                &machine,
                &out.order,
                Some(&out.assignment),
                &out.etas,
                out.nops
            ),
            Ok(())
        );
        let mut etas = out.etas.clone();
        etas[0] += 1;
        assert!(schedule(&block, &machine, &out.order, None, &etas, out.nops + 1).is_err());
        let mut reversed = out.order.clone();
        reversed.reverse();
        assert!(schedule(&block, &machine, &reversed, None, &out.etas, out.nops).is_err());
    }
}
