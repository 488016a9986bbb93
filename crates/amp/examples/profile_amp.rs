use amgen_amp::build_amplifier;
use amgen_core::GenCtx;
use amgen_tech::Tech;
use std::time::Instant;

fn main() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let t0 = Instant::now();
    let (amp, _) = build_amplifier(&t).unwrap();
    eprintln!("total {:?} ({} shapes)", t0.elapsed(), amp.len());
    let t0 = Instant::now();
    let _ = amgen_extract::Extractor::new(&t).connectivity(&amp);
    eprintln!("connectivity {:?}", t0.elapsed());
    let t0 = Instant::now();
    let _ = amgen_drc::Drc::new(&t).check_spacing(&amp);
    eprintln!("check_spacing {:?}", t0.elapsed());
    let t0 = Instant::now();
    let _ = amgen_extract::Extractor::new(&t).parasitics(&amp);
    eprintln!("parasitics {:?}", t0.elapsed());
}
