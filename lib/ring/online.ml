module Binc = Rbgp_util.Binc

type t = {
  name : string;
  augmentation : float;
  assignment : unit -> Assignment.t;
  serve : int -> unit;
  journal : Assignment.journal option;
  snapshot : unit -> string;
  restore : string -> unit;
}

(* The envelope every snapshot shares: a leading format version, then
   the algorithm's own fields, with nothing after them. *)
let snap_version = 1

let make ~name ~augmentation ~assignment ~serve ~save ~load =
  let snapshot () =
    let buf = Buffer.create 256 in
    Binc.add_varint buf snap_version;
    save buf;
    Buffer.contents buf
  in
  let restore s =
    let r = Binc.reader s in
    let v = Binc.read_varint r in
    if v <> snap_version then
      invalid_arg
        (Printf.sprintf "%s: unsupported snapshot version %d" name v);
    load r;
    if not (Binc.at_end r) then
      invalid_arg (name ^ ": trailing bytes after the snapshot")
  in
  {
    name;
    augmentation;
    assignment;
    serve;
    journal = Some (Assignment.journal (assignment ()));
    snapshot;
    restore;
  }
