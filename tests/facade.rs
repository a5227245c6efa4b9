//! The facade crate re-exports every subsystem under stable names.

#[test]
fn facade_reexports_compile_and_link() {
    use lazydram::common::GpuConfig;
    use lazydram::core::PendingQueue;
    use lazydram::dram::Channel;
    use lazydram::energy::{EnergyModel, MemoryTech};
    use lazydram::gpu::MemoryImage;
    use lazydram::workloads::all_apps;

    let cfg = GpuConfig::default();
    let _q = PendingQueue::new(8, cfg.banks_per_channel, 4);
    let _c = Channel::new(&cfg);
    let _m = MemoryImage::new();
    let _e = EnergyModel::new(MemoryTech::Gddr5);
    assert_eq!(all_apps().len(), 20);
}

#[test]
fn facade_exports_the_builder_entry_points() {
    use lazydram::{Scheme, SimBuilder};

    // The root crate is the one-stop shop: scheme lookup and builder
    // construction both resolve from `lazydram`.
    assert_eq!(Scheme::by_label("dyn-dms+dyn-ams"), Some(Scheme::DynCombo));
    assert_eq!(Scheme::ALL.len(), 7);
    assert_eq!(Scheme::PAPER.len(), 6);
    let app = lazydram::workloads::by_name("SCP").expect("app");
    let run = SimBuilder::new(&app)
        .scheme(Scheme::StaticDms)
        .scale(0.02)
        .build();
    assert_eq!(run.scheme_label(), "Static-DMS");
}
