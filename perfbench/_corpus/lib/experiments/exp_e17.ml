let name = "E17"
let title = "million-agent scrip & free riding: SoA engines vs analytic steady state"
let run ?jobs () = Scrip_sweep.render ?jobs ()
