type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float * int
  | String of string
  | List of t list
  | Object of (string * t) list

let float ?(decimals = 3) v = Float (v, decimals)
let list f xs = List (List.map f xs)

(* -- printing ----------------------------------------------------------- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float (v, d) ->
      if Float.is_finite v then Printf.bprintf buf "%.*f" d v
      else Buffer.add_char buf '0'
  | String s -> add_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.contents buf

let to_file file v =
  let buf = Buffer.create 16384 in
  to_buffer buf v;
  Buffer.add_char buf '\n';
  Out_channel.with_open_bin file (fun oc -> Buffer.output_buffer oc buf)

(* -- parsing ------------------------------------------------------------ *)

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "json: %s at byte %d" what !pos) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let next () =
    if !pos >= len then fail "unexpected end";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "want '%c'" c) in
  let literal word v =
    String.iter expect word;
    v
  in
  let hex4 () =
    let h = String.init 4 (fun _ -> next ()) in
    match int_of_string_opt ("0x" ^ h) with
    | Some n -> n
    | None -> fail "bad \\u escape"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code = hex4 () in
              Buffer.add_utf_8_uchar b
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let skip c = if peek () = c then incr pos in
    let digits () =
      let from = !pos in
      while match peek () with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      !pos - from
    in
    skip '-';
    ignore (digits ());
    let decimals = if peek () = '.' then (incr pos; digits ()) else -1 in
    let exponent = peek () = 'e' || peek () = 'E' in
    if exponent then begin
      incr pos;
      if peek () = '+' then incr pos else skip '-';
      ignore (digits ())
    end;
    let text = String.sub s start (!pos - start) in
    match (decimals, exponent, int_of_string_opt text) with
    | -1, false, Some n -> Int n
    | _ -> (
        match float_of_string_opt text with
        | Some v -> Float (v, max decimals 0)
        | None -> fail "bad value")
  in
  (* [items close item] reads [item]s separated by commas up to [close];
     the opening bracket is already consumed. *)
  let items close item =
    skip_ws ();
    if peek () = close then (incr pos; [])
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match next () with
        | ',' -> go (x :: acc)
        | c when c = close -> List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "want ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> String (str ())
    | '{' ->
        incr pos;
        Object
          (items '}' (fun () ->
               skip_ws ();
               let k = str () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | '[' ->
        incr pos;
        List (items ']' value)
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing text";
  v

(* -- reading ------------------------------------------------------------ *)

let member k = function
  | Object fields -> Option.value (List.assoc_opt k fields) ~default:Null
  | _ -> Null

let to_list = function List l -> l | _ -> failwith "json: not a list"
let to_str = function String s -> s | _ -> failwith "json: not a string"

let to_number = function
  | Int n -> float_of_int n
  | Float (v, _) -> v
  | _ -> failwith "json: not a number"
