(* The linter's entry point:

     rbgp-lint                       # scan lib bin bench with the
                                     # checked-in allowlist
     rbgp-lint --sarif-out report.sarif
     rbgp-lint --list-rules          # describe the rule set
     rbgp-lint --explain r11-hot-alloc   # one rule's rationale

   Exit codes: 0 clean, 1 findings, 2 configuration error. *)

let cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "rbgp-lint" ~version:"1.0.0" ~doc:Rbgp_lint.Cli.doc)
    Rbgp_lint.Cli.term

let () = exit (Cmdliner.Cmd.eval' cmd)
