(** Access-trace generation for the Table 2 fault-count experiment.

    A command's execution is modelled as a mix of sequential instruction
    runs (loops, straight-line code) and isolated jumps (calls, branchy
    code) over its text and library text, plus writes to data/bss/stack.
    The mix is deterministic per command (seeded by the program name), so
    both VM systems replay the identical trace; UVM's fault-ahead window
    pays off exactly on the sequential portion, as the paper's Table 2
    note explains ("this mechanism only works for resident pages"). *)

type seg_id = Seg_text | Seg_data | Seg_bss | Seg_stack | Seg_heap | Seg_lib of int

(* Split [0, n) into runs: [single_fraction] of the pages are visited as
   isolated single-page accesses, the rest in sequential runs of 4-7
   pages; run order is shuffled. *)
let coverage_runs rng ~n ~single_fraction =
  let runs = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let len =
      if Sim.Rng.float rng 1.0 < single_fraction then 1
      else 4 + Sim.Rng.int rng 4
    in
    let len = min len (n - !pos) in
    runs := (!pos, len) :: !runs;
    pos := !pos + len
  done;
  let arr = Array.of_list !runs in
  Sim.Rng.shuffle rng arr;
  arr

let text_sweep rng seg ~pages ~single_fraction acc =
  Array.fold_left
    (fun acc (start, len) ->
      let acc = ref acc in
      for p = start to start + len - 1 do
        acc := (seg, p, Vmiface.Vmtypes.Read) :: !acc
      done;
      !acc)
    acc
    (coverage_runs rng ~n:pages ~single_fraction)

(** The full trace of one command execution. *)
let command_trace ?(single_fraction = 0.8) (prog : Programs.t) =
  let rng = Sim.Rng.create ~seed:(Hashtbl.hash prog.Programs.name) in
  let acc = [] in
  (* Text: own image plus each shared library's text. *)
  let acc =
    text_sweep rng Seg_text ~pages:prog.Programs.text_pages ~single_fraction acc
  in
  let acc =
    List.fold_left
      (fun acc (i, (lib : Programs.shared_lib)) ->
        (* Only part of a library's text is exercised by one command. *)
        let used = max 1 (lib.Programs.lib_text / 3) in
        text_sweep rng (Seg_lib i) ~pages:used ~single_fraction acc)
      acc
      (List.mapi (fun i l -> (i, l)) prog.Programs.libs)
  in
  (* Data: initialised data is read and partly written. *)
  let acc =
    List.fold_left
      (fun acc p ->
        let acc = (Seg_data, p, Vmiface.Vmtypes.Read) :: acc in
        if Sim.Rng.float rng 1.0 < 0.6 then
          (Seg_data, p, Vmiface.Vmtypes.Write) :: acc
        else acc)
      acc
      (List.init prog.Programs.data_pages Fun.id)
  in
  (* Bss and stack: written. *)
  let acc =
    List.fold_left
      (fun acc p -> (Seg_bss, p, Vmiface.Vmtypes.Write) :: acc)
      acc
      (List.init prog.Programs.bss_pages Fun.id)
  in
  let acc = (Seg_stack, 0, Vmiface.Vmtypes.Write) :: acc in
  (* Heap working set: zero-fill write faults, which fault-ahead cannot
     help with in either system (no resident data to pre-map). *)
  let acc =
    List.fold_left
      (fun acc p -> (Seg_heap, p, Vmiface.Vmtypes.Write) :: acc)
      acc
      (List.init prog.Programs.work_pages Fun.id)
  in
  List.rev acc
