type t = { n : int; ell : int; k : int; initial : int array }

let default_initial ~n ~k = Array.init n (fun i -> i / k)

let make ~n ~ell ~k ?initial () =
  if n <= 0 then invalid_arg "Instance.make: n must be positive";
  if ell <= 0 then invalid_arg "Instance.make: ell must be positive";
  if k <= 0 then invalid_arg "Instance.make: k must be positive";
  if n > ell * k then invalid_arg "Instance.make: n exceeds total capacity";
  let initial =
    match initial with
    | None -> default_initial ~n ~k
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Instance.make: initial length <> n";
        let loads = Array.make ell 0 in
        Array.iter
          (fun s ->
            if s < 0 || s >= ell then
              invalid_arg "Instance.make: initial server id out of range";
            loads.(s) <- loads.(s) + 1)
          a;
        Array.iter
          (fun load ->
            if load > k then
              invalid_arg "Instance.make: initial load exceeds capacity")
          loads;
        Array.copy a
  in
  { n; ell; k; initial }

let blocks ~n ~ell =
  if ell <= 0 || n mod ell <> 0 then
    invalid_arg "Instance.blocks: ell must divide n";
  make ~n ~ell ~k:(n / ell) ()

let initial_cut_edges t =
  let acc = ref [] in
  for e = t.n - 1 downto 0 do
    if t.initial.(e) <> t.initial.((e + 1) mod t.n) then acc := e :: !acc
  done;
  !acc

let pp fmt t =
  Format.fprintf fmt "ring instance: n=%d ell=%d k=%d cut-edges=%d" t.n t.ell
    t.k
    (List.length (initial_cut_edges t))
