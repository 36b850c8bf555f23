let map f xs =
  let jobs = Array.of_list xs in
  let n = Array.length jobs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some (match f jobs.(i) with v -> Ok v | exception e -> Error e);
      work ()
    end
  in
  let helpers =
    List.init
      (max 0 (min (Domain.recommended_domain_count ()) n - 1))
      (fun _ -> Domain.spawn work)
  in
  work ();
  (* Joining orders every helper's writes to [results] before the reads. *)
  List.iter Domain.join helpers;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
       results)
