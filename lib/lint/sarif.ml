(* SARIF 2.1.0 rendering of a lint outcome, for CI code-scanning upload.

   One run, one driver ("rbgp-lint"), rules from [Rules.descriptions].
   Live findings become results at level "error"; allowlist-suppressed
   findings are emitted too, carrying a [suppressions] entry whose
   justification is the allowlist's written one — so the PR annotation
   view shows *why* a site is accepted, not just that it is.

   Column convention: Finding.col is 0-based (compiler convention),
   SARIF's startColumn is 1-based.  Whole-file findings (line = 0) omit
   the region. *)

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let rule_descriptor (id, desc) =
  Ljson.Obj
    [
      ("id", Ljson.Str id);
      ("shortDescription", Ljson.Obj [ ("text", Ljson.Str desc) ]);
    ]

let location (f : Finding.t) =
  let physical =
    ("artifactLocation", Ljson.Obj [ ("uri", Ljson.Str f.Finding.file) ])
  in
  let fields =
    if f.Finding.line = 0 then [ physical ]
    else
      [
        physical;
        ( "region",
          Ljson.Obj
            [
              ("startLine", Ljson.Num (float_of_int f.Finding.line));
              ("startColumn", Ljson.Num (float_of_int (f.Finding.col + 1)));
            ] );
      ]
  in
  Ljson.Obj [ ("physicalLocation", Ljson.Obj fields) ]

let result ?suppression (f : Finding.t) =
  let base =
    [
      ("ruleId", Ljson.Str f.Finding.rule);
      ("level", Ljson.Str "error");
      ("message", Ljson.Obj [ ("text", Ljson.Str f.Finding.message) ]);
      ("locations", Ljson.Arr [ location f ]);
    ]
  in
  let fields =
    match suppression with
    | None -> base
    | Some (e : Allowlist.entry) ->
        base
        @ [
            ( "suppressions",
              Ljson.Arr
                [
                  Ljson.Obj
                    [
                      ("kind", Ljson.Str "external");
                      ( "justification",
                        Ljson.Str e.Allowlist.justification );
                    ];
                ] );
          ]
  in
  Ljson.Obj fields

let to_json (o : Engine.outcome) =
  let results =
    List.map (fun f -> result f) o.Engine.live
    @ List.map
        (fun (f, e) -> result ~suppression:e f)
        o.Engine.suppressed
  in
  Ljson.Obj
    [
      ("version", Ljson.Str "2.1.0");
      ("$schema", Ljson.Str schema_uri);
      ( "runs",
        Ljson.Arr
          [
            Ljson.Obj
              [
                ( "tool",
                  Ljson.Obj
                    [
                      ( "driver",
                        Ljson.Obj
                          [
                            ("name", Ljson.Str "rbgp-lint");
                            ("informationUri", Ljson.Str "DESIGN.md");
                            ( "rules",
                              Ljson.Arr
                                (List.map rule_descriptor Rules.descriptions)
                            );
                          ] );
                    ] );
                ("results", Ljson.Arr results);
              ];
          ] );
    ]

let to_string o = Ljson.to_string (to_json o)
