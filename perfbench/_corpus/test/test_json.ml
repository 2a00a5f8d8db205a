(* Obs.Json: the in-tree RFC 8259 validator/parser every exporter is
   checked against. A QCheck print/parse round-trip over generated JSON
   values (so escaping and number formatting are exercised from both
   sides), agreement between [validate] and [parse], and explicit
   rejection of the classic malformed shapes — truncated objects, bad
   escapes, trailing garbage. *)

module J = Bn_obs.Obs.Json

(* {1 Rendering}

   A serializer for parsed values, built on the exporter's own
   [json_escape]. [%.17g] is lossless for finite doubles, so a rendered
   [Num] must parse back to the identical float. *)

let rec render = function
  | J.Null -> "null"
  | J.Bool b -> if b then "true" else "false"
  | J.Num f -> Printf.sprintf "%.17g" f
  | J.Str s -> "\"" ^ Bn_obs.Obs.json_escape s ^ "\""
  | J.Arr l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | J.Obj l ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ Bn_obs.Obs.json_escape k ^ "\":" ^ render v) l)
    ^ "}"

(* {1 Generator} *)

let gen_string =
  QCheck.Gen.(
    let c =
      frequency
        [
          (20, char_range 'a' 'z');
          (5, char_range 'A' 'Z');
          (5, char_range '0' '9');
          (1, return '"');
          (1, return '\\');
          (1, return '\n');
          (1, return '\t');
          (1, return '\x01');
          (1, return ' ');
        ]
    in
    string_size ~gen:c (0 -- 8))

let gen_num =
  QCheck.Gen.(
    frequency
      [
        (3, map float_of_int (-1000 -- 1000));
        (2, map (fun (a, b) -> float_of_int a /. float_of_int (1 + abs b)) (pair int int));
        (1, map (fun a -> float_of_int a *. 1e15) (-1000 -- 1000));
      ])

let gen_value =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return J.Null);
                 (2, map (fun b -> J.Bool b) bool);
                 (3, map (fun f -> J.Num f) gen_num);
                 (3, map (fun s -> J.Str s) gen_string);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (2, map (fun l -> J.Arr l) (list_size (0 -- 4) (self (n / 2))));
                 ( 2,
                   map
                     (fun l -> J.Obj l)
                     (list_size (0 -- 4) (pair gen_string (self (n / 2)))) );
               ]))

let arb_value =
  (* The printer shows the rendered text: that is the artifact under
     test, and it is what a failing seed needs reproduced. *)
  QCheck.make ~print:render gen_value

(* {1 Properties} *)

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json: render |> parse is the identity" arb_value
    (fun v ->
      match J.parse (render v) with
      | Some v' -> v' = v
      | None -> false)

let validate_agrees =
  QCheck.Test.make ~count:500 ~name:"Json: validate accepts exactly what parse does" arb_value
    (fun v ->
      let s = render v in
      J.validate s && J.parse s <> None)

(* {1 Malformed inputs} *)

let malformed =
  [
    ("truncated object", {|{"a": 1|});
    ("truncated array", {|[1, 2|});
    ("truncated string", {|"ab|});
    ("bad escape", {|"\x"|});
    ("truncated unicode escape", {|"\u00g1"|});
    ("trailing garbage", {|{"a": 1} x|});
    ("two values", {|1 2|});
    ("bare key", {|{a: 1}|});
    ("missing colon", {|{"a" 1}|});
    ("trailing comma", {|[1,]|});
    ("leading zero", {|01|});
    ("lone minus", {|-|});
    ("empty input", "");
  ]

let test_malformed_rejected () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ ": validate rejects") false (J.validate s);
      Alcotest.(check bool) (name ^ ": parse rejects") true (J.parse s = None))
    malformed

let test_member () =
  let src = {|{"a": 1, "b": [true, null], "a": 2}|} in
  match J.parse src with
  | None -> Alcotest.fail "fixture should parse"
  | Some v ->
    (match J.member "b" v with
    | Some (J.Arr [ J.Bool true; J.Null ]) -> ()
    | _ -> Alcotest.fail "member b wrong");
    (match J.member "a" v with
    | Some (J.Num n) -> Alcotest.(check (float 0.0)) "first duplicate wins" 1.0 n
    | _ -> Alcotest.fail "member a wrong");
    Alcotest.(check bool) "absent member" true (J.member "z" v = None)

let suite =
  [
    QCheck_alcotest.to_alcotest roundtrip;
    QCheck_alcotest.to_alcotest validate_agrees;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "member lookup" `Quick test_member;
  ]
